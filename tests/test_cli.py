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
