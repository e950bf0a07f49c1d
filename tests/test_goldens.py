"""The compiler's output for each benchmark equals its golden byte for byte,
the re-ingested golden QASM has the compiled circuit's distribution, and
with qubit reuse the emitted register is no wider than the circuit's peak
of live qubits."""

import importlib.util
import pathlib
import re

import pytest

from qbc.pipeline import Options, compile_source, compile_to_circuit

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "regen_goldens.py"


def _regen_goldens():
    spec = importlib.util.spec_from_file_location("regen_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_goldens_match_compiler_output():
    assert _regen_goldens().check() == []


def _peak_live(m) -> int:
    live = peak = 0
    for op in m.entry_fn.ops:
        if op.kind == "qalloc":
            live += 1
            peak = max(peak, live)
        elif op.kind in ("qfree", "qfreez", "measure"):
            live -= 1
    return peak


def test_reingested_golden_holds_no_more_live_qubits():
    from qbc.backends import read_qasm3
    from qbc.run import distribution

    root = SCRIPT.parent.parent
    path = root / "benchmarks" / "grover.qw"
    compiled = compile_to_circuit(path.read_text(), str(path), Options())
    golden = read_qasm3((root / "tests" / "goldens" / "grover.qasm").read_text())
    assert _peak_live(golden) <= _peak_live(compiled)
    want = distribution(compiled, all_bits=True)
    got = distribution(golden, all_bits=True)
    assert set(want) == set(got)
    assert all(abs(want[k] - got[k]) < 1e-9 for k in want)


@pytest.mark.parametrize("name", [
    "bell", "bv", "dj", "grover", "period", "simon", "teleport"])
def test_reused_register_width_is_peak_live_qubits(name):
    path = SCRIPT.parent.parent / "benchmarks" / f"{name}.qw"
    source = path.read_text()
    for opt_level in (0, 1):
        for decompose in (False, True):
            opts = Options(opt_level=opt_level, decompose=decompose,
                           reuse_qubits=True)
            peak = _peak_live(compile_to_circuit(source, str(path), opts))
            qasm = compile_source(source, str(path), opts, "qasm")
            width = re.search(r"^qubit\[(\d+)\] q;$", qasm, re.M).group(1)
            assert int(width) == peak, (opt_level, decompose)
            if name == "grover" and opt_level == 1 and decompose:
                assert peak == 6


def test_check_names_every_mismatch_and_rewrite_reports_each_file(
        tmp_path, monkeypatch, capsys):
    regen = _regen_goldens()
    for path in regen.GOLDEN_DIR.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "grover.qasm").write_text("stale\n")
    (tmp_path / "bell.ll").write_text("stale\n")
    (tmp_path / "dj.qasm").unlink()
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    assert regen.main(["--check"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "golden mismatch: bell.ll: compiler output differs from the golden",
        "golden mismatch: dj.qasm: golden missing",
        "golden mismatch: grover.qasm: compiler output differs from the golden",
    ]
    assert regen.main([]) == 0
    changed = [line for line in capsys.readouterr().out.splitlines()
               if line.endswith(": changed")]
    assert changed == ["bell.ll: changed", "dj.qasm: changed",
                       "grover.qasm: changed"]
    assert regen.check() == []
