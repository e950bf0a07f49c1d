"""The compiler's output for each benchmark equals its golden byte for byte,
and the re-ingested golden QASM has the compiled circuit's distribution."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / \
    "regen_goldens.py"


def _regen_goldens():
    spec = importlib.util.spec_from_file_location("regen_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_goldens_match_compiler_output():
    assert _regen_goldens().check() is None


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
    from qbc.pipeline import Options, compile_to_circuit
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
