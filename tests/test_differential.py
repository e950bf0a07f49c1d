"""Every way of compiling a benchmark gives the same exact distribution:
-O0/-O1 x decompose on/off, each circuit re-read from its QASM with and
without qubit reuse, and the front end with and without tensor flattening."""

import pathlib

import pytest

from qbc.backends import read_qasm3
from qbc.expand import expand
from qbc.parser import parse
from qbc.pipeline import Options, compile_source, front, to_gates, to_qwir
from qbc.run import distribution
from qbc.typecheck import typecheck

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCHMARKS = ["bell", "bv", "dj", "grover", "period", "simon", "teleport"]


def _assert_close(want, got):
    for key in set(want) | set(got):
        assert abs(want.get(key, 0.0) - got.get(key, 0.0)) < 1e-9, key


@pytest.mark.parametrize("name", BENCHMARKS)
def test_compile_options_agree_on_distribution(name):
    path = str(BENCH / f"{name}.qw")
    src = open(path).read()
    tp = front(src, path, Options())
    # Flattening keeps every signature the one typecheck computed.
    assert typecheck(tp.program, path).fn_types == tp.fn_types
    want = None
    for opt_level in (0, 1):
        for decompose in (False, True):
            opts = Options(opt_level=opt_level, decompose=decompose)
            got = distribution(to_gates(to_qwir(tp, opts), opts, path),
                               all_bits=True)
            want = want or got
            _assert_close(want, got)
            for reuse in (False, True):
                opts.reuse_qubits = reuse
                qasm = compile_source(src, path, opts, "qasm")
                _assert_close(want, distribution(read_qasm3(qasm), all_bits=True))
    unflattened = typecheck(expand(parse(src, path), {}, path), path)
    opts = Options()
    _assert_close(want, distribution(
        to_gates(to_qwir(unflattened, opts), opts, path), all_bits=True))
