"""The `qbc` command line: every input ends in output with exit 0 or a
diagnostic with exit 1."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from qbc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"

# Runs `qbc check` and every `qbc compile --emit` on each benchmark, then
# `qbc run` on the first, in one fresh interpreter, and reports the exit
# codes, the histogram, which of numpy and the modules compiling never
# needs were loaded before the run, and whether numpy was loaded after it.
_NUMPY_PROBE = """\
import contextlib, io, json, sys
from qbc import cli
emits = ["ast", "qwerty-ir", "qcircuit-ir", "qasm", "qir"]
codes = {}
for path in sys.argv[1:]:
    for argv in [["check"]] + [["compile", "--emit", e] for e in emits]:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes[" ".join(argv + [path])] = cli.main(argv + [path])
compile_loaded = [m for m in ("numpy", "dataclasses", "inspect", "decimal")
                  if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    run_code = cli.main(["run", sys.argv[1], "--shots", "16"])
print(json.dumps({"codes": codes, "compile_loaded": compile_loaded,
                  "run_code": run_code, "run_out": out.getvalue(),
                  "run_loaded_numpy": "numpy" in sys.modules}))
"""


def test_compiling_never_imports_numpy():
    # A subprocess, since pytest's own process has numpy loaded already.
    paths = [str(BENCH / "bell.qw")] + sorted(
        str(p) for p in BENCH.glob("*.qw") if p.name != "bell.qw")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *paths],
                          env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert len(report["codes"]) == 6 * 7
    # Only the QIR backend's rejection of teleport ends in a diagnostic.
    assert {k: v for k, v in report["codes"].items() if v} == {
        f"compile --emit qir {BENCH / 'teleport.qw'}": 1}
    # Compiling loads neither numpy nor what would only slow start-up:
    # dataclasses, the inspect it imports, and decimal, which --emit ast
    # loads on demand.
    assert report["compile_loaded"] == []
    assert report["run_code"] == 0 and report["run_loaded_numpy"]
    counts = dict(line.split("\t") for line in report["run_out"].splitlines())
    assert set(counts) <= {"00", "11"}
    assert sum(int(c) for c in counts.values()) == 16


def test_run_prints_histogram(capsys):
    assert main(["run", str(BENCH / "bell.qw"), "--shots", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = dict(line.split("\t") for line in lines)
    assert set(counts) <= {"00", "11"}
    assert sum(int(c) for c in counts.values()) == 100


def test_run_zero_shots_prints_empty_histogram(capsys):
    assert main(["run", str(BENCH / "bell.qw"), "--shots", "0"]) == 0
    assert capsys.readouterr().out == ""


def test_run_negative_shots_is_a_diagnostic(capsys):
    assert main(["run", str(BENCH / "bell.qw"), "--shots", "-5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbc: simulation error:")
    assert "-5" in err
    assert main(["run", str(BENCH / "bell.qw"), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbc: simulation error:") and "-1" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_run_shots_past_int64_is_a_diagnostic(capsys):
    shots = "100000000000000000000"
    assert main(["run", str(BENCH / "bell.qw"), "--shots", shots]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbc: simulation error:") and shots in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_run_past_amplitude_limit_is_a_diagnostic(tmp_path, capsys):
    # 21 qubits in |+> need 2^21 stored amplitudes, one H past the limit.
    path = tmp_path / "wide.qw"
    path.write_text("qpu main() -> bit[21] { 'p'[21] | std[21].measure }\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbc: simulation error: h %"), err
    assert "limited to 1048576 stored amplitudes" in err


def test_run_past_live_qubit_limit_is_a_diagnostic(tmp_path, capsys):
    # 63 qubits in |0> hold one amplitude but need 63 index bits.
    path = tmp_path / "tall.qw"
    path.write_text("qpu main() -> bit[63] { '0'[63] | std[63].measure }\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbc: simulation error: qalloc %"), err
    assert "limited to 62 live qubits" in err


def test_run_holds_only_the_nonzero_amplitudes(capsys):
    # dj at N=22 declares more qubits than a dense state could hold, but
    # its state is one basis vector after every gate.
    assert main(["run", str(BENCH / "dj.qw"), "-D", "N=22"]) == 0
    assert capsys.readouterr().out == "1" * 22 + "\t1024\n"


def test_backend_rejection_is_a_diagnostic(capsys):
    for name, flags in [("teleport", []), ("grover", ["--no-decompose"])]:
        path = str(BENCH / f"{name}.qw")
        assert main(["compile", path, "--emit", "qir", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: error:"), err


def test_non_utf8_input_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "latin1.qw"
    path.write_bytes("qpu main() -> bit[1] { 'é' }\n".encode("latin-1"))
    assert main(["compile", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"qbc: {path}: not UTF-8")


# A function-valued conditional nested in another: a gate takes one
# condition, so the front end rejects it at the inner conditional.
NESTED_COND = """
qpu g(q: qubit[1]) -> qubit[1] rev { q | std.flip }
qpu h(q: qubit[1]) -> qubit[1] rev { q | ({'0', '1'} >> {'0', '1' @ (pi/2)}) }
qpu main() -> bit[2] {
    let m = '0' | std.measure;
    let n = '1' | std.measure;
    ('1' + '0') | ~({'1'} & (h if m else (g if n else ~h))) | std[2].measure
}
"""

# Swapping two 13-qubit vectors is a 13-qubit permutation, one past what
# synthesis takes. Only gate lowering knows that limit, and check runs it;
# the translation's op carries its position there.
SWAP13 = """qpu main() -> bit[13] {
    '0000000000000'
        | ({'0000000000000', '1111111111111'} >> {'1111111111111', '0000000000000'})
        | std[13].measure
}
"""
SWAP13_AT = f"3:{SWAP13.splitlines()[2].index('>>') + 1}"


def test_gate_lowering_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "swap13.qw"
    path.write_text(SWAP13)
    assert main(["compile", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{SWAP13_AT}: error: permutation too wide")


def brick(elements: list[str]) -> str:
    return " + ".join(elements)


# Seven sorted two-qubit literals (A) against {'0','1'}, six of them and
# {'0','1'} (B), or the same with its six written {'11','00','01','10'}
# (D): A >> D merges its last 13 qubits, while A >> B and B >> D merge
# nothing.
SORTED, MIXED, ONE = "{'00','01','10','11'}", "{'11','00','01','10'}", "{'0','1'}"
A14 = brick([SORTED] * 7)
B14 = brick([ONE] + [SORTED] * 6 + [ONE])
D14 = brick([ONE] + [MIXED] * 6 + [ONE])


def fused14(first: str, second: str, third: str) -> str:
    return (f"qpu main() -> bit[14] {{ '0'[14] | ({first} >> {second}) "
            f"| ({second} >> {third}) | std[14].measure }}\n")


def test_permutation_limit_is_a_diagnostic(tmp_path, capsys):
    # An unmerged 13-qubit pair, and two translations that merge nothing
    # but fuse into A >> D, whose 13-qubit merge synthesis refuses at the
    # first translation of the run.
    fused = fused14(A14, B14, D14)
    for source, at, width in ((SWAP13, SWAP13_AT, 13),
                              (fused, f"1:{fused.index('>>') + 1}", 13)):
        path = tmp_path / "wide.qw"
        path.write_text(source)
        line = f"{path}:{at}: error: permutation too wide ({width} > 12)\n"
        for cmd in ("check", "compile"):
            assert main([cmd, str(path)]) == 1
            assert capsys.readouterr().err == line


def test_a_wide_merge_that_fuses_into_a_narrow_translation_compiles(
        tmp_path, capsys):
    # A >> D merges 13 qubits, but D >> B fuses it into A >> B, whose
    # vectors go to themselves: no gate is left.
    path = tmp_path / "fused.qw"
    path.write_text(fused14(A14, D14, B14))
    for argv in (["check"], ["run", "--shots", "16"]):
        assert main(argv + [str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
    assert captured.out == f"{'0' * 14}\t16\n"
    assert main(["stats", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "gates=0", "t_count=0", "cx_count=0"]


# Two span-equivalent translations whose merged pair was once refused as a
# predicate over a conditional standardization. The predicate that set
# pins is {'p'} on the last qubit in the first, and {'pm', 'mp'} on the
# first two in the second.
MERGED_PREDICATES = [
    "qpu main() -> bit[4] {\n    '0000' | ({'jj', 'ii', 'ij', 'ji'} + "
    "{'mp', 'pp'} >> pm[1] + fourier[2] + {'p'}) | std[4].measure\n}\n",
    "qpu main() -> bit[4] {\n    '0000' | ({'pmm', 'mpm', 'mpp', 'pmp'} + "
    "pm[1] >> {'mp', 'pm'} + {'11', '01', '10', '00'}) | std[4].measure\n}\n",
]


@pytest.mark.parametrize("source", MERGED_PREDICATES, ids=["fourier", "pm"])
def test_a_merged_predicate_checks_compiles_and_runs(source, tmp_path, capsys):
    path = tmp_path / "merged.qw"
    path.write_text(source)
    for argv in (["check"], ["compile"], ["run", "--shots", "64"]):
        assert main(argv + [str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
    counts = [int(line.split("\t")[1]) for line in captured.out.splitlines()]
    assert sum(counts) == 64


def brickwork_source(n: int) -> str:
    """A translation of n/2 copies of {'11','00','01','10'} against
    {'1','0'}, n/2 - 1 copies and {'1','0'}: no element boundary of one side
    meets one of the other, so alignment merges all n qubits."""
    mix, one = "{'11','00','01','10'}", "{'1','0'}"
    k = n // 2
    return (f"qpu main() -> bit[{n}] {{ '0'[{n}] | ({' + '.join([mix] * k)} >> "
            f"{' + '.join([one] + [mix] * (k - 1) + [one])}) "
            f"| std[{n}].measure }}\n")


def test_a_merge_past_the_permutation_limit_is_a_quick_positioned_diagnostic(
        tmp_path, capsys):
    source = brickwork_source(20)
    path = tmp_path / "brick20.qw"
    path.write_text(source)
    start = time.monotonic()
    assert main(["check", str(path)]) == 1
    assert time.monotonic() - start < 1.0
    col = source.index(">>") + 1
    assert capsys.readouterr().err == (
        f"{path}:1:{col}: error: permutation too wide (20 > 12)\n")


def test_long_chain_is_a_diagnostic_under_every_emit(tmp_path, capsys):
    # A 600-term XOR compiled to QASM, but its AST crashed the printer.
    path = tmp_path / "xor600.qw"
    path.write_text("classical c(x: bit[1]) -> bit[1] {\n    "
                    + " ^ ".join(["x"] * 600) + "\n}\n"
                    "qpu main() -> bit[2] { '00' | c.xor | std[2].measure }\n")
    for emit in ("qasm", "ast"):
        assert main(["compile", "--emit", emit, str(path)]) == 1
        assert capsys.readouterr().err == (
            f"{path}:2:411: error: expression nests deeper than 100 levels\n")


# Each program ends in one of the dimension solver's four messages, at the
# position it names.
DIM_ERRORS = {
    "2:11: error: dimension 3/2 is not an integer":
        "qpu main() -> bit[1] {\n    '0'[3 / 2] | std.measure\n}\n",
    "3:32: error: cannot solve dimension for N": """
qpu f[N](q: qubit[2 * N]) -> qubit[2 * N] rev { q }
qpu main() -> bit[3] { '000' | f | std[3].measure }
""",
    "3:31: error: inferred non-positive dimension N = -1": """
qpu f[N](q: qubit[N + 3]) -> qubit[N + 3] rev { q }
qpu main() -> bit[2] { '00' | f | std[2].measure }
""",
}


def test_dimension_errors_name_the_file(tmp_path, capsys):
    path = str(BENCH / "simon.qw")
    assert main(["compile", path, "-D", "N=13"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:8:13: error: dimension mismatch"), err
    for message, source in DIM_ERRORS.items():
        path = tmp_path / "dims.qw"
        path.write_text(source)
        assert main(["compile", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}:{message}\n"


# Each program ends in one diagnostic from the front end, which expands,
# types and checks each kernel in one walk.
MAIN_F = "qpu main() -> bit[1] { '0' | f | std.measure }"
SHAPE_AND_TYPE_ERRORS = [
    ("qpu main() -> bit[1] { '0' | ('0' >> std) | std.measure }",
     "1:35: error: translation operands must be bases"),
    ("qpu main() -> bit[2] { '00' | ('0' & std.flip) | std[2].measure }",
     "1:36: error: predicate must be a basis"),
    ("qpu main() -> bit[1] { '0' | ('0').measure }",
     "1:35: error: .measure applies to a basis"),
    ("classical f(x: bit[1]) -> bit[2] { repeat(x, 2) }\n"
     "qpu main() -> bit[1] { '0' | f.sign | std.measure }",
     "2:31: error: .sign requires a single output bit"),
    ("qpu main() -> bit[1] { '0' | g.sign | std.measure }",
     "1:31: error: unknown classical function 'g'"),
    ("qpu main() -> bit[1] { '0' | '0' }",
     "1:30: error: expected a function value"),
    ("qpu main() -> bit[2] { ('0' + std) | std[2].measure }",
     "1:25: error: tensor operands must all be values, bases, or functions"),
    ("qpu main() -> bit[1] { zz | std.measure }",
     "1:24: error: unknown name 'zz'"),
    ("qpu f() -> bit[1] { '0' | std.measure }",
     "1:1: error: missing entry kernel 'main'"),
    ("qpu main(q: qubit[1]) -> qubit[1] rev { q }",
     "1:10: error: entry kernel 'main' cannot take qubits"),
    ("qpu main() -> bit[1] { std | std.measure }",
     "1:28: error: pipe input must be qubits, found basis[1]"),
    ("qpu main() -> bit[2] { let m = '0' | std.measure; "
     "('0' + m) | std[2].measure }",
     "1:52: error: cannot tensor mixed kinds"),
    ("qpu main() -> bit[1] { '0' | (std >> std[2]) | std.measure }",
     "1:35: error: translation dimensions differ: 1 vs 2"),
    ("qpu main() -> bit[2] { '00' | (std.flip + std.measure) | std[2].measure }",
     "1:35: error: tensor operands must be all reversible or all "
     "measuring/discarding"),
    ("qpu main() -> bit[2] { let m = '0' | std.measure; "
     "'00' | (std.flip + id if m else id) | std[2].measure }",
     "1:73: error: conditional branches have different types: "
     "func(qubit[2] ->rev qubit[2]) vs func(qubit[1] ->rev qubit[1])"),
    ("qpu main() -> bit[1] { '0' }",
     "1:1: error: kernel main returns qubit[1], declared bit[1]"),
    # A kernel that takes no qubits is no function value.
    ("qpu f() -> qubit[1] rev { '0' }\n"
     "qpu main() -> bit[2] { '0' | (f + std.flip) | std[2].measure }",
     "2:31: error: kernel 'f' takes no qubits"),
    ("qpu f() -> qubit[1] rev { '0' }\n"
     "qpu main() -> bit[1] { '0' | (f + std.flip) | std.measure }",
     "2:31: error: kernel 'f' takes no qubits"),
    # A reversible kernel keeps its width, which its adjoint and predicated
    # forms assume.
    ("qpu g(q: qubit[1]) -> qubit[2] rev { q + '0' }\n"
     "qpu main() -> bit[2] { '00' | ({'1'} & g) | std[2].measure }",
     "1:1: error: reversible kernel g takes 1 qubit but returns qubit[2]"),
    ("qpu g[N](q: qubit[N]) -> qubit[N + 1] rev { q + '0' }\n"
     "qpu main() -> bit[2] { '0' | g | std[2].measure }",
     "1:1: error: reversible kernel g takes 1 qubit but returns qubit[2]"),
    # A discard leaves nothing to bind, and so does a tensor of discards.
    ("qpu main() -> bit[1] { let x = '0' | discard; '0' | std.measure }",
     "1:24: error: let binds qubit or bit values"),
    ("qpu main() -> bit[1] { let x = '00' | (discard + discard); "
     "'0' | std.measure }",
     "1:24: error: let binds qubit or bit values"),
    # A name in a signature must be a declared dimension variable.
    ("qpu f(q: qubit[M]) -> qubit[M] rev { q | (std[M] >> pm[M]) }\n"
     "qpu main() -> bit[2] { '00' | f | std[2].measure }",
     "1:16: error: undeclared dimension variable M"),
    ("classical c(x: bit[1]) -> bit[M] { x }\n"
     "qpu main() -> bit[2] { '00' | c.xor | std[2].measure }",
     "1:31: error: undeclared dimension variable M"),
    ("qpu f[N](q: qubit[N]) -> qubit[N + K] rev { q }\n"
     "qpu main() -> bit[1] { '0' | f | std.measure }",
     "1:36: error: undeclared dimension variable K"),
    # A name declared twice is reported at its second declaration.
    ("qpu f(q: qubit[1]) -> qubit[1] rev { q }\n"
     "qpu f(q: qubit[1]) -> qubit[1] rev { q | std.flip }\n"
     "qpu main() -> bit[1] { '0' | f | std.measure }",
     "2:1: error: duplicate kernel 'f'"),
    ("classical c(x: bit[1]) -> bit[1] { x }\n"
     "classical c(x: bit[1]) -> bit[1] { ~x }\n"
     "qpu main() -> bit[2] { '00' | c.xor | std[2].measure }",
     "2:1: error: duplicate classical function 'c'"),
    ("qpu main[N=2, N=3]() -> bit[N] { '0'[N] | std[N].measure }",
     "1:15: error: duplicate dimension variable N"),
    ("qpu main(a: bit[1] = '1', a: bit[1] = '0') -> bit[1] "
     "{ '0' | std.measure }",
     "1:27: error: duplicate parameter 'a'"),
    ("qpu f(a: bit[1], a: bit[1], q: qubit[1]) -> qubit[1] rev { q }\n"
     "qpu main() -> bit[1] { '0' | f('1', '0') | std.measure }",
     "1:18: error: duplicate parameter 'a'"),
    ("classical c(x: bit[1], x: bit[1]) -> bit[1] { x }\n"
     "qpu main() -> bit[3] { '000' | c.xor | std[3].measure }",
     "1:24: error: duplicate parameter 'x'"),
    ("qpu main() -> bit[1] { let (a: qubit[1], a: qubit[1]) = '01'; "
     "a | std.measure }",
     "1:42: error: duplicate binding 'a'"),
    # The entry kernel's result is what the program measures.
    ("qpu main() -> qubit[1] { '0' }",
     "1:15: error: entry kernel 'main' must return bits"),
    # A branch that returns bits or nothing measures or discards.
    ("qpu main() -> bit[1] { let m = '0' | std.measure; "
     "'0' | (std.measure if m else std.measure) }",
     "1:70: error: conditional branches cannot measure or discard"),
    ("qpu g(q: qubit[1]) -> bit[1] { q | std.measure }\n"
     "qpu main() -> bit[1] { let m = '0' | std.measure; '0' | (g if m else g) }",
     "2:60: error: conditional branches cannot measure or discard"),
    ("qpu main() -> bit[1] { let m = '0' | std.measure; "
     "'01' | (std.measure + (discard if m else discard)) }",
     "1:82: error: conditional branches cannot measure or discard"),
    # A branch kernel that returns qubits but measures inside, itself or
    # through a kernel it calls.
    ("qpu k(q: qubit[2]) -> qubit[1] { let (a: qubit[1], b: qubit[1]) = q; "
     "let m = a | std.measure; b }\n"
     "qpu main() -> bit[1] { let c = '1' | std.measure; "
     "'00' | (k if c else k) | std.measure }",
     "2:61: error: conditional branches cannot measure or discard"),
    ("qpu k(q: qubit[2]) -> qubit[1] { let (a: qubit[1], b: qubit[1]) = q; "
     "let m = a | std.measure; b }\n"
     "qpu j(q: qubit[2]) -> qubit[1] { q | k }\n"
     "qpu main() -> bit[1] { let c = '1' | std.measure; "
     "'00' | (j if c else j) | std.measure }",
     "3:61: error: conditional branches cannot measure or discard"),
    # A conditional met while expanding another's branch, at the inner
    # one's `if`.
    (NESTED_COND, "7:45: error: nested conditionals are not supported"),
    ("qpu main() -> bit[1] { let a = '0' | std.measure; "
     "let b = '1' | std.measure; "
     "'0' | ((std.flip if a else id) if b else id) | std.measure }",
     "1:95: error: nested conditionals are not supported"),
    # A recursive kernel, at the call that closes the cycle, which names
    # the kernel instances on it.
    ("qpu f(q: qubit[1]) -> qubit[1] rev { q | f }\n" + MAIN_F,
     "1:42: error: recursive call cycle @f -> @f"),
    ("qpu f(q: qubit[1]) -> qubit[1] rev { q | g }\n"
     "qpu g(q: qubit[1]) -> qubit[1] rev { q | f }\n" + MAIN_F,
     "2:42: error: recursive call cycle @f -> @g -> @f"),
    ("qpu g(q: qubit[1]) -> qubit[1] rev { q | ~g }\n"
     "qpu main() -> bit[2] { '10' | ({'1'} & g) | std[2].measure }",
     "1:43: error: recursive call cycle @g -> @g"),
    ("qpu f[N](q: qubit[N]) -> qubit[N] rev { q | f }\n"
     "qpu main() -> bit[2] { '00' | f | std[2].measure }",
     "1:45: error: recursive call cycle @f__N2 -> @f__N2"),
    ("qpu f(q: qubit[1]) -> qubit[1] rev { let m = q | std.measure; '0' }\n"
     + MAIN_F, "1:53: error: measurement inside a reversible kernel"),
    ("qpu main() -> bit[1] { '0' | k[[1]] | std.measure }",
     "1:31: error: unknown kernel 'k'"),
]


@pytest.mark.parametrize("source, message", SHAPE_AND_TYPE_ERRORS)
def test_front_end_error_is_one_positioned_line(tmp_path, capsys, source,
                                                message):
    # check compiles as compile does, so both end in the one line.
    path = tmp_path / "bad.qw"
    path.write_text(source + "\n")
    for cmd in ("check", "compile"):
        assert main([cmd, str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == f"{path}:{message}\n"


def test_stats_prints_circuit_counts(capsys):
    assert main(["stats", str(BENCH / "bell.qw")]) == 0
    out = capsys.readouterr().out
    assert "gates=" in out and "qubits=" in out
    path = BENCH / "grover.qw"
    assert main(["stats", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["gates=248", "t_count=93", "cx_count=93", "qubits=6"]
    # qubits= is the width the emitted QASM declares: reused at -O1, one
    # register per allocation at -O0.
    for flags, width in (([], 6), (["-O0"], 13)):
        assert main(["stats", str(path), *flags]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"qubits={width}"
        assert main(["compile", str(path), *flags]) == 0
        assert f"\nqubit[{width}] q;\n" in capsys.readouterr().out


def test_stats_reports_gate_lowering_error(tmp_path, capsys):
    path = tmp_path / "swap13.qw"
    path.write_text(SWAP13)
    assert main(["stats", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{path}:{SWAP13_AT}: error: permutation too wide")
    assert captured.out == ""


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.qasm"
    assert main(["compile", str(BENCH / "bell.qw"), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qbc: ") and str(out) in err
