"""Every way of compiling a program gives the same exact distribution:
-O0/-O1 x decompose on/off, each circuit re-read from its QASM with and
without qubit reuse (-O1 always reuses).
The programs are the benchmarks, three that give phase folding work (a
pipe chain, a predicated oracle and a phase conditioned on a measurement),
two that allocate after a measurement or a discard, four sign oracles
whose phase kick has no target wire, a conditional that swaps wires, a
measurement whose one outcome is left only rounding error, adjoints and
predicates of conditionals, tensors and kernels, a conditional inside a
tensor, and the generated programs of ``test_front_fuzz``.
Where a program's distribution is known, every way must give it."""

import pathlib

import pytest
from hypothesis import HealthCheck, given, settings

from qbc.backends import emit_qasm3
from qbc.expand import expand
from qbc.pipeline import Options, compile_source, front, to_gates, to_qwir
from qbc.run import distribution
from oracles import pipe_chain_source, returning_all_bits
from qasm_reader import read_qasm3
from test_front_fuzz import programs

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"
BENCHMARKS = ["bell", "bv", "dj", "grover", "period", "simon", "teleport"]

PROGRAMS = {name: (BENCH / f"{name}.qw", {}) for name in BENCHMARKS} | {
    "pipe_chain": (pipe_chain_source(
        ["flip0", "keep1", "flip2", "keep3", "flip1"] * 7), {}),
    "predicated_oracle": ("""\
classical all_ones[N](x: bit[N]) -> bit[1] {
    and_reduce(x)
}

qpu main[N]() -> bit[N + 1] {
    ('1' + 'p'[N]) | ({'1'} & all_ones[[N]].sign) | std[N + 1].measure
}
""", {"N": 3}),
    "conditioned_phase": ("""\
qpu main() -> bit[1] {
    let (a: qubit[1], b: qubit[1]) = 'p' + 'p';
    let m: bit[1] = a | std.measure;
    b | ({'0', '1'} >> {'0', '1' @ (pi / 4)})
        | (({'0', '1'} >> {'0', '1' @ (pi / 2)}) if m else id[1])
        | ({'0', '1'} >> {'0', '1' @ (pi / 4)})
        | pm.measure
}
""", {}),
    # With qubit reuse, a register freed by a measurement or a discard must
    # not be taken over by a later allocation in its unknown state.
    "alloc_after_measure": ("""\
qpu main() -> bit[2] {
    let m: bit[1] = 'p' | std.measure;
    let r: bit[1] = '1' | std.measure;
    m + r
}
""", {}),
    "alloc_after_discard": ("""\
qpu main() -> bit[2] {
    let m: bit[1] = ('p' + '0') | (discard + std.measure);
    let r: bit[1] = '0' | std.measure;
    m + r
}
""", {}),
    # Sign oracles kick their phase in synthesis: a negated AND, bare and
    # predicated, a predicated parity, and a constant-true f with no input
    # wire, bare (a global phase) and predicated (a relative one).
    "negated_sign_oracle": ("""\
classical nand[N](x: bit[N]) -> bit[1] {
    ~and_reduce(x)
}

qpu main[N]() -> bit[N] {
    'p'[N] | nand.sign | pm[N].measure
}
""", {"N": 3}),
    "predicated_parity_oracle": ("""\
classical dot[N](s: bit[N], x: bit[N]) -> bit[1] {
    xor_reduce(s & x)
}

qpu main() -> bit[4] {
    ('1' + 'p'[3]) | ({'1'} & dot('101').sign) | (std + pm[3]).measure
}
""", {}),
    "constant_sign_oracle": ("""\
classical f[N](s: bit[N]) -> bit[1] {
    xor_reduce(s)
}

qpu main() -> bit[1] {
    'p' | (f('1').sign + id) | pm.measure
}
""", {}),
    "predicated_constant_sign_oracle": ("""\
classical f[N](s: bit[N]) -> bit[1] {
    xor_reduce(s)
}

qpu main() -> bit[2] {
    ('p' + 'p') | ({'1'} & (f('1').sign + id)) | pm[2].measure
}
""", {}),
    # Under a predicate, a negated kick's X gates run unconditionally and
    # only its Z gates are controlled.
    "predicated_negated_sign_oracle": ("""\
classical nand[N](x: bit[N]) -> bit[1] {
    ~and_reduce(x)
}

qpu main[N]() -> bit[N + 1] {
    ('p' + 'p'[N]) | ({'1'} & nand[[N]].sign) | pm[N + 1].measure
}
""", {"N": 3}),
    # Three std >> pm layers leave the norm just under 1, so reading b as 1
    # has probability 1 - 4e-15 at -O0: outcome 0 must not become a branch
    # with no rows.
    "rounded_branch": ("""\
qpu main() -> bit[4] {
    let v = '000' | (std[3] >> pm[3]) | (std[3] >> pm[3]) | (std[3] >> pm[3]);
    let b = '1' | std.measure;
    (v + '0') | (std[4] >> pm[4]) | std[4].measure
}
""", {}),
    # A conditional whose then-branch renames its qubits: gate lowering
    # routes the branches' slots into one order with a conditioned swap.
    "conditional_wire_swap": ("""\
qpu sw(q: qubit[2]) -> qubit[2] rev {
    let (a: qubit[1], b: qubit[1]) = q;
    b + a
}

qpu main() -> bit[3] {
    let m: bit[1] = 'p' | std.measure;
    let r: bit[2] = '01' | (sw if m else id[2]) | std[2].measure;
    m + r
}
""", {}),
    # A predicate over a conditional and an adjoint of a conditional whose
    # then-branch is a tensor: each branch is applied in its own region.
    "composite_conditional": ("""\
qpu main() -> bit[3] {
    let m = 'p' | std.measure;
    let q = '1p' | ({'1'} & (pm.flip if m else (std >> pm)))
        | ~((std.flip + std.flip) if m else id[2]);
    m + (q | std[2].measure)
}
""", {}),
    "composite": (GOLDENS / "composite.qw", {}),
    # A conditional as one part of a tensor runs on that part's slice.
    "conditional_in_tensor": ("""\
qpu main() -> bit[3] {
    let m = 'p' | std.measure;
    let q = '10' | ((std.flip if m else id) + std.flip);
    m + (q | std[2].measure)
}
""", {}),
}

# Distributions that pin each sign oracle's phase, and the swap's routing.
EXPECTED = {
    "negated_sign_oracle": {"000": 0.5625} | {
        f"{i:03b}": 0.0625 for i in range(1, 8)},
    "predicated_parity_oracle": {"1101": 1.0},
    "constant_sign_oracle": {"0": 1.0},
    "predicated_constant_sign_oracle": {"10": 1.0},
    "predicated_negated_sign_oracle": {"1000": 0.765625} | {
        f"{i:04b}": 0.015625 for i in range(16) if i != 8},
    "conditional_wire_swap": {"001": 0.5, "110": 0.5},
    "rounded_branch": {"10000": 0.5, "10001": 0.5},
    "composite_conditional": {"010": 0.5, "100": 0.25, "101": 0.25},
    "conditional_in_tensor": {"011": 0.5, "101": 0.5},
    "composite": {f"0{i:03b}110": 1 / 32 for i in range(8)}
    | {f"1{i:03b}110": 1 / 32 for i in range(8)}
    | {"0000110": 9 / 32, "0100110": 9 / 32},
}


def _assert_close(want, got):
    for key in set(want) | set(got):
        assert abs(want.get(key, 0.0) - got.get(key, 0.0)) < 1e-9, key


def _assert_ways_agree(src, path, dims, want=None):
    """Every way of compiling ``src`` gives the exact distribution ``want``
    over all measured bits, or agrees with the first way without one."""
    tp = front(src, path, Options(dims=dims))
    # The front-end walk builds every tensor flat, which keeps each
    # signature: expanding its flat output again gives the same ones.
    assert expand(tp.program, {}).fn_types == tp.fn_types
    for opt_level in (0, 1):
        for decompose in (False, True):
            opts = Options(opt_level=opt_level, decompose=decompose,
                           dims=dims)
            qc = to_gates(to_qwir(tp, opts), opts)
            got = distribution(returning_all_bits(qc))
            want = want or got
            _assert_close(want, got)
            # compile_source's QASM for these options, with and without
            # reuse_qubits (the same QASM at -O1, which always reuses).
            for reuse in {opt_level >= 1, True}:
                qasm = emit_qasm3(qc, reuse_qubits=reuse)
                _assert_close(want, distribution(read_qasm3(qasm)))


@pytest.mark.parametrize("name", PROGRAMS)
def test_compile_options_agree_on_distribution(name):
    src, dims = PROGRAMS[name]
    if isinstance(src, pathlib.Path):
        path, src = str(src), src.read_text()
    else:
        path = f"{name}.qw"
    _assert_ways_agree(src, path, dims, EXPECTED.get(name))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_generated_programs_agree_on_distribution(source):
    _assert_ways_agree(source, "fuzz.qw", {})


def test_idle_ancilla_is_dropped_at_O1():
    # f('1') is constant, so -O1 folds away the only gates on the sign
    # kick's ancilla, and the ancilla goes with them.
    src, dims = PROGRAMS["constant_sign_oracle"]
    for opt_level, width in ((0, 2), (1, 1)):
        opts = Options(opt_level=opt_level, dims=dims)
        qasm = compile_source(src, "constant.qw", opts, "qasm")
        assert f"\nqubit[{width}] q;\n" in qasm, opt_level
