"""The `qbc` command line: every input ends in output with exit 0 or a
diagnostic with exit 1."""

import pathlib

from qbc.cli import main

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


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


def test_run_past_live_qubit_limit_is_a_diagnostic(capsys):
    assert main(["run", str(BENCH / "dj.qw"), "-D", "N=22"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbc: simulation error:")
    assert "20 live qubits" in err


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


# A function-valued conditional nested in another reaches gate lowering,
# which supports one level of conditions.
NESTED_COND = """
qpu g(q: qubit[1]) -> qubit[1] rev { q | std.flip }
qpu h(q: qubit[1]) -> qubit[1] rev { q | ({'0', '1'} >> {'0', '1' @ (pi/2)}) }
qpu main() -> bit[2] {
    let m = '0' | std.measure;
    let n = '1' | std.measure;
    ('1' + '0') | ~({'1'} & (h if m else (g if n else ~h))) | std[2].measure
}
"""


def test_gate_lowering_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "nested.qw"
    path.write_text(NESTED_COND)
    assert main(["compile", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}: error: nested conditionals are not supported")


# Each program ends in one of the dimension solver's four messages.
DIM_ERRORS = {
    "not an integer": "qpu main() -> bit[1] {\n    '0'[3 / 2] | std.measure\n}\n",
    "cannot solve dimension for N": """
qpu f[N](q: qubit[2 * N]) -> qubit[2 * N] rev { q }
qpu main() -> bit[3] { '000' | f | std[3].measure }
""",
    "inferred non-positive dimension N = -1": """
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
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:") and message in err, err


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
    path = tmp_path / "nested.qw"
    path.write_text(NESTED_COND)
    assert main(["stats", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"{path}: error: nested conditionals are not supported")
    assert captured.out == ""


def test_recursion_is_a_diagnostic(tmp_path, capsys):
    main_f = "qpu main() -> bit[1] { '0' | f | std.measure }\n"
    cases = {
        "self.qw": ("qpu f(q: qubit[1]) -> qubit[1] rev { q | f }\n" + main_f,
                    "@f -> @f"),
        "mutual.qw": ("qpu f(q: qubit[1]) -> qubit[1] rev { q | g }\n"
                      "qpu g(q: qubit[1]) -> qubit[1] rev { q | f }\n" + main_f,
                      "@f -> @g -> @f"),
        # The cycle names the user's function, not its predicated and
        # adjoint forms.
        "specialized.qw": ("qpu g(q: qubit[1]) -> qubit[1] rev { q | ~g }\n"
                           "qpu main() -> bit[2] "
                           "{ '10' | ({'1'} & g) | std[2].measure }\n",
                           "@g -> @g"),
    }
    for name, (source, cycle) in cases.items():
        path = tmp_path / name
        path.write_text(source)
        assert main(["compile", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"{path}: error: recursive call cycle {cycle}\n"


def test_bad_seed_variable_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("QBC_SEED", "abc")
    assert main(["run", str(BENCH / "bell.qw")]) == 2
    assert capsys.readouterr().err == "qbc: bad QBC_SEED 'abc'\n"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.qasm"
    assert main(["compile", str(BENCH / "bell.qw"), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qbc: ") and str(out) in err
