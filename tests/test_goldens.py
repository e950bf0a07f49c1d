"""The compiler's output for each benchmark equals its golden byte for byte,
the pinned front-end diagnostics corpus gives its pinned results, the
re-ingested golden QASM has the compiled circuit's distribution, and
with qubit reuse the emitted register is no wider than the circuit's peak
of live qubits and no deeper than with a fresh register per allocation."""

import importlib.util
import pathlib
import re

import pytest

from qbc.backends import emit_qasm3
from qbc.pipeline import Options, compile_source, compile_to_circuit

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "regen_goldens.py"


def _regen_goldens():
    spec = importlib.util.spec_from_file_location("regen_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_goldens_match_compiler_output():
    assert _regen_goldens().check() == []


def test_front_end_diagnostics_match_the_pinned_corpus():
    # Every source of tests/goldens/front_diagnostics.txt still ends as
    # pinned: ok, or the same diagnostic text at the same line:col.
    assert _regen_goldens().front_mismatches() == []


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
    from oracles import returning_all_bits
    from qasm_reader import read_qasm3
    from qbc.run import distribution

    path = ROOT / "benchmarks" / "grover.qw"
    compiled = compile_to_circuit(path.read_text(), str(path), Options())
    golden = read_qasm3((ROOT / "tests" / "goldens" / "grover.qasm").read_text())
    assert _peak_live(golden) <= _peak_live(compiled)
    want = distribution(returning_all_bits(compiled))
    got = distribution(golden)
    assert set(want) == set(got)
    assert all(abs(want[k] - got[k]) < 1e-9 for k in want)


@pytest.mark.parametrize("name", [
    "bell", "bv", "dj", "grover", "period", "simon", "teleport"])
def test_reused_register_width_is_peak_live_qubits(name):
    path = ROOT / "benchmarks" / f"{name}.qw"
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


def _qasm_counts(text: str) -> dict[str, int]:
    """The benchmark's counts of QASM text: depth and declared width."""
    spec = importlib.util.spec_from_file_location(
        "check", ROOT / "perfbench" / "check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.qasm_counts(text)


# bv, period and simon fix N through their default arguments.
@pytest.mark.parametrize("name,n", [
    ("bell", None), ("teleport", None), ("bv", None), ("period", None),
    ("simon", None), *((b, n) for b in ("dj", "grover") for n in (4, 8, 16))])
def test_reuse_costs_no_depth(name, n):
    path = ROOT / "benchmarks" / f"{name}.qw"
    source = path.read_text()
    opts = Options(dims={} if n is None else {"N": n})
    qc = compile_to_circuit(source, str(path), opts)
    reused = _qasm_counts(compile_source(source, str(path), opts, "qasm"))
    fresh = _qasm_counts(emit_qasm3(qc, reuse_qubits=False))
    assert reused["depth"] == fresh["depth"]
    assert reused["qubits"] == _peak_live(qc)


def _golden_copy(regen, tmp_path, monkeypatch):
    """Point ``regen`` at a copy of the goldens in ``tmp_path``. The output
    digest, which takes seconds and has its own check, is read back from
    the copy instead of computed."""
    for path in regen.GOLDEN_DIR.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(regen.output_digest, "digest", lambda: (
        tmp_path / regen.output_digest.GOLDEN.name).read_text().splitlines())


def test_check_names_every_mismatch_and_rewrite_reports_each_file(
        tmp_path, monkeypatch, capsys):
    regen = _regen_goldens()
    _golden_copy(regen, tmp_path, monkeypatch)
    (tmp_path / "grover.qasm").write_text("stale\n")
    (tmp_path / "bell.ll").write_text("stale\n")
    (tmp_path / "dj.qasm").unlink()
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


def test_rewrite_shows_a_qasm_golden_layout_change(
        tmp_path, monkeypatch, capsys):
    regen = _regen_goldens()
    _golden_copy(regen, tmp_path, monkeypatch)
    path = ROOT / "benchmarks" / "grover.qw"
    qc = compile_to_circuit(path.read_text(), str(path), Options())
    (tmp_path / "grover.qasm").write_text(emit_qasm3(qc, reuse_qubits=False))
    assert regen.main([]) == 0
    changed = [line for line in capsys.readouterr().out.splitlines()
               if ": changed" in line]
    assert changed == [
        "grover.qasm: changed (qubit[13] depth 180 -> qubit[6] depth 180)"]


def test_rewrite_shows_whether_a_basis_ir_golden_only_renumbered(
        tmp_path, monkeypatch, capsys):
    regen = _regen_goldens()
    _golden_copy(regen, tmp_path, monkeypatch)
    bell = (tmp_path / "bell.qwir").read_text()
    (tmp_path / "bell.qwir").write_text(
        re.sub(r"%(\d+)", lambda v: f"%{int(v[1]) + 100}", bell))
    dj = (tmp_path / "dj.qwir").read_text()
    (tmp_path / "dj.qwir").write_text(dj.replace("qbmeas", "qbmeas2", 1))
    assert regen.main([]) == 0
    changed = [line for line in capsys.readouterr().out.splitlines()
               if ": changed" in line]
    assert changed == [
        "bell.qwir: changed (equal after renumbering values)",
        "dj.qwir: changed (differs after renumbering values)"]
