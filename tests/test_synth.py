"""Translation synthesis against the brute-force translation unitary."""

import functools
import math
import operator
import pathlib
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qbc.ast_nodes import (
    ClassicalFn, CBin, CIndex, CLit, CNot, CReduce, CSlice, CVar, Num,
    ParamNode, TypeNode,
)
from qbc.bases import (
    Basis, BasisLiteral, BasisVector, BuiltinBasis, Prim, align, basis,
    factor_ordered,
)
from qbc.diagnostics import CompileError
from qbc.peephole import decompose_multicontrol, peephole
from qbc.pipeline import Options, compile_source, stats_for
from qbc.qcirc import Gate, GateKind, QCircModule, adjoint_gates, g, verify_circuit
from qbc.synth import (
    embed_gates, iqft_gates, lower_translation, pair_permutation,
    plan_standardization, qft_gates, synth_permutation, StdEntry,
    _transform_gates,
)

from oracles import (
    gates_to_fn, lit, lower_with_params, module_unitary, pipe_chain_source,
    random_span_pair, reference_plan_standardization, span_projector,
    synth_permutation_by_arrays, translation_unitary, unitary_of,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
STD, PM, IJ, FOURIER = Prim.STD, Prim.PM, Prim.IJ, Prim.FOURIER


def u_of(gates, n):
    return unitary_of(gates, n)


def dft(n):
    size = 1 << n
    w = np.exp(2j * np.pi / size)
    return np.array([[w ** (j * k) for k in range(size)] for j in range(size)]) / math.sqrt(size)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qft_matches_dft(n):
    assert np.allclose(u_of(qft_gates(list(range(n))), n), dft(n), atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_iqft_is_adjoint(n):
    assert np.allclose(
        u_of(iqft_gates(list(range(n))), n), dft(n).conj().T, atol=1e-9
    )


def test_plan_conditional_and_unconditional():
    # {'p','m'} + ij >> {'p','m'} + pm
    b_in = basis(lit("p", "m"), BuiltinBasis(IJ, 1))
    b_out = basis(lit("p", "m"), BuiltinBasis(PM, 1))
    lstd, rstd = plan_standardization(b_in, b_out)
    assert [(e.prim, e.dim, e.conditional) for e in lstd] == [
        (PM, 1, False), (IJ, 1, True)
    ]
    assert [(e.prim, e.dim, e.conditional) for e in rstd] == [
        (PM, 1, False), (PM, 1, True)
    ]


def test_plan_inseparable_fourier():
    f1, f2, f3 = (BuiltinBasis(FOURIER, n) for n in (1, 2, 3))
    cases = [
        # std + fourier[3] >> fourier[3] + std
        (basis(BuiltinBasis(STD, 1), f3), basis(f3, BuiltinBasis(STD, 1)),
         [(STD, 1, 0, True), (FOURIER, 3, 1, True)],
         [(FOURIER, 3, 0, True), (STD, 1, 3, True)]),
        # fourier[2] >> fourier[1] + fourier[1]: no fourier element has
        # the same qubits on the other side.
        (basis(f2), basis(f1, f1),
         [(FOURIER, 2, 0, True)],
         [(FOURIER, 1, 0, True), (FOURIER, 1, 1, True)]),
    ]
    for b_in, b_out, want_l, want_r in cases:
        lstd, rstd = plan_standardization(b_in, b_out)
        assert [(e.prim, e.dim, e.offset, e.conditional) for e in lstd] == want_l
        assert [(e.prim, e.dim, e.offset, e.conditional) for e in rstd] == want_r


def test_plan_trivial_std():
    # fourier[2] >> fourier[2] is the inseparable trivial case.
    for prim in (STD, FOURIER):
        b = basis(BuiltinBasis(prim, 2))
        lstd, rstd = plan_standardization(b, b)
        assert [(e.prim, e.dim, e.conditional) for e in lstd] == [
            (prim, 2, False)]
        assert lstd == rstd


@st.composite
def _plan_basis(draw, width):
    """A basis of ``width`` qubits: std/pm/ij/fourier builtins and literals
    of up to four std/pm/ij vectors."""
    elements = []
    while width:
        d = draw(st.integers(1, width))
        prim = draw(st.sampled_from(Prim))
        if prim is not FOURIER and draw(st.booleans()):
            ks = draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1,
                               max_size=4, unique=True))
            elements.append(BasisLiteral(tuple(
                BasisVector(prim, format(k, f"0{d}b")) for k in ks)))
        else:
            elements.append(BuiltinBasis(prim, d))
        width -= d
    return Basis(tuple(elements))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(_plan_basis(n), _plan_basis(n))))
def test_plan_matches_reference_walk(pair):
    b_in, b_out = pair
    assert plan_standardization(b_in, b_out) == \
        reference_plan_standardization(b_in, b_out)
    for b in pair:
        offsets = [sum(e.dim for e in b.elements[:i])
                   for i in range(len(b.elements))]
        assert plan_standardization(b, b)[0] == tuple(
            StdEntry(e.prim, e.dim, at, False)
            for e, at in zip(b.elements, offsets))


def test_plan_symmetry_of_unconditional_entries():
    b_in = basis(lit("p", "m"), BuiltinBasis(IJ, 2), lit("0"))
    b_out = basis(lit("m", "p"), BuiltinBasis(PM, 2), lit("0"))
    lstd, rstd = plan_standardization(b_in, b_out)
    lu = [(e.prim, e.dim) for e in lstd if not e.conditional]
    ru = [(e.prim, e.dim) for e in rstd if not e.conditional]
    assert lu == ru


def test_align_paper_case():
    # {'1'} + std >> {'11','10'}
    b_in = basis(lit("1"), BuiltinBasis(STD, 1))
    b_out = basis(lit("11", "10"))
    pairs = align(b_in, b_out)
    assert len(pairs) == 2
    assert pairs[0].b_in == lit("1") and pairs[0].b_out == lit("1")
    assert pairs[1].b_in == lit("0", "1") and pairs[1].b_out == lit("1", "0")
    assert pairs[0].predicate == ((0,), ("1",)) and pairs[1].predicate is None


def test_align_merges_when_unfactorable():
    # {'0','1'} + {'0','1'} >> {'00','10','01','11'}
    b_in = basis(lit("0", "1"), lit("0", "1"))
    b_out = basis(lit("00", "10", "01", "11"))
    pairs = align(b_in, b_out)
    assert len(pairs) == 1
    assert pairs[0].dim == 2
    assert pairs[0].b_in == lit("00", "01", "10", "11")
    assert pairs[0].b_out == lit("00", "10", "01", "11")


def test_align_identity_builtin():
    b = basis(BuiltinBasis(STD, 2))
    pairs = align(b, b)
    assert len(pairs) == 1
    assert pair_permutation(pairs[0]) is None


def test_factor_ordered_respects_order():
    ok = factor_ordered(lit("00", "01", "10", "11"), 1)
    assert ok is not None and ok[0] == lit("0", "1") and ok[1] == lit("0", "1")
    assert factor_ordered(lit("00", "11", "01", "10"), 1) is None


def test_synth_permutation_identity():
    assert synth_permutation([0, 1, 2, 3]) == []


def test_synth_permutation_not():
    gates = synth_permutation([1, 0])
    assert len(gates) == 1 and gates[0].kind is GateKind.X


def test_synth_permutation_swap_states():
    gates = synth_permutation([0, 2, 1, 3])
    want = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(u_of(gates, 2), want)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_synth_permutation_exhaustive_small(size):
    n = size.bit_length() - 1
    import itertools

    pool = permutations(range(size))
    if size == 8:
        pool = list(itertools.islice(pool, 0, None, 127))  # sampled subset
    for perm in pool:
        gates = synth_permutation(list(perm))
        u = u_of(gates, n)
        want = np.zeros((size, size))
        for x, y in enumerate(perm):
            want[y, x] = 1
        assert np.allclose(u, want, atol=1e-9), perm


def test_synth_permutation_basis_states_exact():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        perm = list(rng.permutation(1 << n))
        gates = synth_permutation(perm)
        if n <= 6:
            u = u_of(gates, n) if n <= 10 else None
            for x in range(1 << n):
                col = u[:, x]
                assert abs(col[perm[x]] - 1.0) < 1e-9


def _rescanning_synth_permutation(perm):
    """The list-based synthesis ``synth_permutation`` replaced, which finds
    each row's source with ``index`` and rebuilds the table per row: the
    reference its gate lists must equal."""
    size = len(perm)
    d = size.bit_length() - 1

    def apply_steps(steps, value):
        for controls, target in steps:
            if value & controls == controls:
                value ^= target
        return value

    f = list(perm)
    gates_in, gates_out = [], []
    for x in range(size):
        y = f[x]
        if y == x:
            continue
        x_in = f.index(x)
        if bin(x ^ y).count("1") <= bin(x ^ x_in).count("1"):
            steps = _transform_gates(y, x, d)
            f = [apply_steps(steps, v) for v in f]
            gates_out.extend(steps)
        else:
            steps = _transform_gates(x, x_in, d)
            f = [f[apply_steps(steps, r)] for r in range(size)]
            gates_in.extend(reversed(steps))
    return [
        Gate(GateKind.X, (d - t.bit_length(),),
             tuple(d - 1 - k for k in range(d - 1, -1, -1) if c & (1 << k)))
        for c, t in gates_in + gates_out[::-1]]


@pytest.mark.parametrize("d", range(3, 9))
def test_synth_permutation_matches_rescanning_synthesis(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3):
        perm = [int(v) for v in rng.permutation(1 << d)]
        gates = synth_permutation(perm)
        assert gates == _rescanning_synth_permutation(perm)
        # Run the network classically: qubit 0 is the index's top bit.
        for x in range(1 << d):
            bits = [(x >> (d - 1 - q)) & 1 for q in range(d)]
            for gt in gates:
                if all(bits[c] for c in gt.controls):
                    bits[gt.targets[0]] ^= 1
            assert int("".join(map(str, bits)), 2) == perm[x]


@pytest.mark.parametrize("d", range(3))
def test_synth_permutation_matches_array_synthesis_exhaustive(d):
    for perm in permutations(range(1 << d)):
        assert synth_permutation(perm) == synth_permutation_by_arrays(perm), perm


@pytest.mark.parametrize("d", range(3, 11))
def test_synth_permutation_matches_array_synthesis(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(3 if d <= 8 else 1):
        perm = [int(v) for v in rng.permutation(1 << d)]
        assert synth_permutation(perm) == synth_permutation_by_arrays(perm)


def test_synth_permutation_numpy_input_gives_int_positions():
    perm = np.random.default_rng(5).permutation(16)
    gates = synth_permutation(perm)
    assert gates == synth_permutation([int(v) for v in perm])
    for gt in gates:
        for q in gt.targets + gt.controls:
            assert type(q) is int


def _check_translation(b_in: Basis, b_out: Basis):
    got = u_of(lower_translation(b_in, b_out), b_in.dim)
    want = translation_unitary(b_in, b_out)
    assert np.allclose(got, want, atol=1e-9), f"{b_in} >> {b_out}"


def test_translation_swap():
    _check_translation(basis(lit("01", "10")), basis(lit("10", "01")))
    got = u_of(lower_translation(basis(lit("01", "10")), basis(lit("10", "01"))), 2)
    assert np.allclose(got, np.eye(4)[[0, 2, 1, 3]], atol=1e-9)


def test_translation_is_memoized_on_the_basis_pair():
    # Equal, separately built pairs share one immutable result, and a zero
    # phase of either sign is the same key because it is stored as +0.0.
    first = lower_translation(basis(lit("0", ("1", 0.0))), basis(lit("1", "0")))
    again = lower_translation(basis(lit("0", ("1", -0.0))), basis(lit("1", "0")))
    assert isinstance(first, tuple) and again is first
    assert math.copysign(1.0, BasisVector(STD, "1", -0.0).phase) == 1.0


def test_translation_cache_misses_once_per_distinct_pair():
    # 40 stage calls over four distinct translations, std and pm in turn so
    # that the basis IR fuses none, plus the measurement's std[1] rotation:
    # five pairs, so five misses and 36 hits.
    src = pipe_chain_source(["flip0", "pm_keep1", "keep0", "pm_flip1"] * 10)
    lower_translation.cache_clear()
    compile_source(src, "pipe.qw", Options(), "qasm")
    info = lower_translation.cache_info()
    assert (info.misses, info.hits, info.currsize) == (5, 36, 5)
    # All in std, the 40 stages fuse into one translation: two pairs.
    src = pipe_chain_source(["flip0", "keep1", "keep0", "flip1"] * 10)
    lower_translation.cache_clear()
    compile_source(src, "pipe.qw", Options(), "qasm")
    info = lower_translation.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)


def test_translation_conditional_standardization():
    # Fully-spanning first element: unconditional everywhere.
    _check_translation(
        basis(lit("p", "m"), BuiltinBasis(IJ, 1)),
        basis(lit("p", "m"), BuiltinBasis(PM, 1)),
    )
    # Predicated variant: conditional entries become controlled gates.
    _check_translation(
        basis(lit("m"), BuiltinBasis(IJ, 1)),
        basis(lit("m"), BuiltinBasis(PM, 1)),
    )


def test_translation_fourier_appendix_case():
    _check_translation(
        basis(BuiltinBasis(STD, 1), BuiltinBasis(FOURIER, 3)),
        basis(BuiltinBasis(FOURIER, 3), BuiltinBasis(STD, 1)),
    )


def test_translation_alignment_case():
    _check_translation(basis(lit("1"), BuiltinBasis(STD, 1)), basis(lit("11", "10")))


def test_translation_phase_z():
    _check_translation(basis(lit(("1", math.pi))), basis(lit("1")))
    got = u_of(lower_translation(basis(lit(("1", math.pi))), basis(lit("1"))), 1)
    assert np.allclose(got, np.diag([1, -1]), atol=1e-9)


def test_translation_diffuser():
    b_in = basis(lit(("mmm", math.pi)))
    b_out = basis(lit("mmm"))
    got = u_of(lower_translation(b_in, b_out), 3)
    minus = np.array([1, -1]) / math.sqrt(2)
    mmm = np.kron(np.kron(minus, minus), minus)
    want = np.eye(8) - 2 * np.outer(mmm, mmm)
    assert np.allclose(got, want, atol=1e-9)
    _check_translation(b_in, b_out)


def test_translation_identity_is_empty_or_identity():
    for b in [basis(BuiltinBasis(STD, 2)), basis(BuiltinBasis(PM, 1)),
              basis(BuiltinBasis(FOURIER, 2))]:
        got = u_of(lower_translation(b, b), b.dim)
        assert np.allclose(got, np.eye(1 << b.dim), atol=1e-9)


def test_translation_predicated_phase():
    # {'1'} + {'0'@pi,'1'} >> {'1'} + {'0','1'}: phase only inside the
    # predicate subspace.
    b_in = basis(lit("1"), lit(("0", math.pi), "1"))
    b_out = basis(lit("1"), lit("0", "1"))
    _check_translation(b_in, b_out)
    got = u_of(lower_translation(b_in, b_out), 2)
    assert np.allclose(got, np.diag([1, 1, -1, 1]), atol=1e-9)


def test_translation_pm_predicate():
    # Predicate written in the pm basis standardizes unconditionally.
    _check_translation(
        basis(lit("m"), BuiltinBasis(STD, 1)),
        basis(lit("m"), lit("1", "0")),
    )


def test_translation_partial_order_swap_with_predicate():
    # Non-fully-spanning pair whose sides differ in order acts as its own
    # permutation restricted to the span.
    _check_translation(
        basis(lit("1"), lit("01", "10")),
        basis(lit("1"), lit("10", "01")),
    )


def test_translation_multi_vector_predicate():
    _check_translation(
        basis(lit("01", "10"), lit("0", "1")),
        basis(lit("01", "10"), lit("1", "0")),
    )


def test_translation_fourier_roundtrip():
    _check_translation(
        basis(BuiltinBasis(FOURIER, 2)), basis(BuiltinBasis(STD, 2))
    )
    _check_translation(
        basis(BuiltinBasis(STD, 2)), basis(BuiltinBasis(FOURIER, 2))
    )


def test_translation_ij_cases():
    _check_translation(basis(BuiltinBasis(IJ, 1)), basis(BuiltinBasis(STD, 1)))
    _check_translation(basis(BuiltinBasis(IJ, 2)), basis(BuiltinBasis(PM, 2)))
    _check_translation(basis(lit("ij", "ji")), basis(lit("ji", "ij")))


# -- randomized corpus -------------------------------------------------------


def _random_welltyped_pair(rng) -> tuple[Basis, Basis]:
    """A random well-typed translation of dim <= 5 over all four prims."""
    dim = int(rng.integers(1, 6))
    phases = [0.0, math.pi, math.pi / 2, -math.pi / 2, math.pi / 4, -math.pi / 4]

    def random_side(structure):
        elements = []
        for kind, d, payload in structure:
            if kind == "builtin":
                prim = rng.choice([STD, PM, IJ, FOURIER])
                elements.append(BuiltinBasis(Prim(prim), d))
            elif kind == "full":
                prim = Prim(rng.choice([STD, PM, IJ]))
                bits = [format(k, f"0{d}b") for k in range(1 << d)]
                rng.shuffle(bits)
                vecs = []
                for bstr in bits:
                    phase = float(rng.choice(phases)) or None
                    vecs.append(BasisVector(prim, bstr, phase))
                elements.append(BasisLiteral(tuple(vecs)))
            else:  # partial literal; the vector *set* is shared via payload
                prim, bits = payload
                order = list(bits)
                rng.shuffle(order)
                vecs = []
                for bstr in order:
                    phase = float(rng.choice(phases)) or None
                    vecs.append(BasisVector(prim, bstr, phase))
                elements.append(BasisLiteral(tuple(vecs)))
        return Basis(tuple(elements))

    structure = []
    left = dim
    while left > 0:
        d = int(rng.integers(1, min(left, 3) + 1))
        kind = rng.choice(["builtin", "full", "partial"], p=[0.3, 0.4, 0.3])
        payload = None
        if kind == "partial":
            if d > 2:
                d = 2
            prim = Prim(rng.choice([STD, PM, IJ]))
            bits = [format(k, f"0{d}b") for k in range(1 << d)]
            count = int(rng.integers(1, (1 << d)))
            chosen = list(rng.choice(bits, size=count, replace=False))
            payload = (prim, chosen)
        structure.append((kind, d, payload))
        left -= d
    return random_side(structure), random_side(structure)


def test_translation_randomized_corpus():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 120:
        b_in, b_out = _random_welltyped_pair(rng)
        try:
            align(b_in, b_out)
        except CompileError:
            continue
        _check_translation(b_in, b_out)
        checked += 1


@settings(max_examples=250, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_every_span_equivalent_pair_synthesizes_its_unitary(rng, dim):
    # std/pm/ij/fourier builtins and literals, cut at different qubits on
    # the two sides, with shuffled vectors and phases: where a literal is
    # no product in vector order, alignment merges.
    b_in, b_out = random_span_pair(rng, dim)
    _check_translation(b_in, b_out)


# Span-equivalent translations whose merged pair was once a predicate over
# a conditional standardization.
MERGED_PREDICATES = [
    (basis(lit("jj", "ii", "ij", "ji"), lit("mp", "pp")),
     basis(BuiltinBasis(PM, 1), BuiltinBasis(FOURIER, 2), lit("p"))),
    (basis(lit("pmm", "mpm", "mpp", "pmp"), BuiltinBasis(PM, 1)),
     basis(lit("mp", "pm"), lit("11", "01", "10", "00"))),
]


def translation_program(b_in: Basis, b_out: Basis) -> str:
    n = b_in.dim
    return (f"qpu main() -> bit[{n}] {{\n    '{'0' * n}' | ({b_in} >> {b_out})"
            f" | std[{n}].measure\n}}\n")


@pytest.mark.parametrize("b_in,b_out", MERGED_PREDICATES)
@pytest.mark.parametrize("opt_level", [0, 1])
def test_a_merged_pair_takes_its_predicate_from_its_set(b_in, b_out, opt_level):
    from unittest import mock

    from qbc import pipeline

    opts = Options(opt_level=opt_level)
    tp = pipeline.front(translation_program(b_in, b_out), "merged.qw", opts)
    with mock.patch.object(pipeline, "lower_module", lower_with_params):
        qc = pipeline.to_gates(pipeline.to_qwir(tp, opts), opts)
    got = module_unitary(qc.entry_fn)
    assert np.allclose(got, translation_unitary(b_in, b_out), atol=1e-9)


def test_a_merge_splits_a_builtin_as_the_written_split_does():
    # The first pair needs one qubit of std[14]: swallowing all of it made
    # a 16-qubit permutation.
    out = basis(lit("100", "010", "101", "011"), BuiltinBasis(STD, 13))
    merged = basis(lit("10", "01"), BuiltinBasis(STD, 14))
    split = basis(lit("10", "01"), BuiltinBasis(STD, 1), BuiltinBasis(STD, 13))
    for b_in in (merged, split):
        got = stats_for(translation_program(b_in, out), "split.qw", Options())
        assert (got.gates, got.t_count, got.cx_count) == (77, 35, 32)
    assert lower_translation(merged, out) == lower_translation(split, out)


# -- classical synthesis ------------------------------------------------------


def _cfn(name, widths, ret, body):
    params = tuple(
        ParamNode(f"x{i}", TypeNode("bit", Num(w))) for i, w in enumerate(widths)
    )
    return ClassicalFn(name, (), (), params, TypeNode("bit", Num(ret)), body)


def _truth_check(cfn, fn_py, n, k):
    gates, width, anc = embed_gates(cfn, "xor", None)
    assert width == n + k
    total = n + k + anc
    u = u_of(gates, total)
    for x in range(1 << n):
        for y0 in range(1 << k):
            col = (x << (k + anc)) | (y0 << anc)
            vec = u[:, col]
            want = (x << (k + anc)) | ((y0 ^ fn_py(x)) << anc)
            assert abs(vec[want] - 1.0) < 1e-9, (x, y0)


def test_classical_identity():
    body = CVar("x0")
    cfn = _cfn("ident", [3], 3, body)
    _truth_check(cfn, lambda x: x, 3, 3)
    gates, *_ = embed_gates(cfn, "xor", None)
    assert all(gt.kind is GateKind.X and len(gt.controls) == 1 for gt in gates)


def test_classical_parity():
    cfn = _cfn("par", [4], 1, CReduce("xor", CVar("x0")))
    _truth_check(cfn, lambda x: bin(x).count("1") & 1, 4, 1)


def test_classical_and_tree():
    cfn = _cfn("conj", [3], 1, CReduce("and", CVar("x0")))
    _truth_check(cfn, lambda x: int(x == 7), 3, 1)


def test_classical_bv_inner_product_structure():
    # dot(s, x) with s = 101 folds to CNOTs from bits 0 and 2; no ancillas.
    body = CReduce("xor", CBin("&", CLit("101"), CVar("x0")))
    cfn = _cfn("dot", [3], 1, body)
    gates, _, anc = embed_gates(cfn, "xor", None)
    assert anc == 0
    assert [gt.controls[0] for gt in gates] == [0, 2]
    assert all(gt.targets == (3,) for gt in gates)
    _truth_check(cfn, lambda x: (bin(x & 0b101).count("1")) & 1, 3, 1)


def test_classical_sign_mode_cz():
    # f(x) = x0 & x1 in sign mode acts as CZ.
    body = CBin("&", CIndex(CVar("x0"), Num(0)), CIndex(CVar("x0"), Num(1)))
    cfn = _cfn("andf", [2], 1, body)
    gates, _, anc = embed_gates(cfn, "sign", None)
    u = u_of(gates, 2 + anc)
    want_small = np.diag([1, 1, 1, -1])
    got = u[:: 1 << anc, :: 1 << anc] if anc else u
    # Ancillas start and end in |0>, so the top-left block is the action.
    cols = np.arange(4) << anc
    got = u[np.ix_(cols, cols)]
    assert np.allclose(got, want_small, atol=1e-9)


def test_classical_or_demorgan():
    body = CBin("|", CIndex(CVar("x0"), Num(0)), CIndex(CVar("x0"), Num(1)))
    cfn = _cfn("orf", [2], 1, body)
    _truth_check(cfn, lambda x: int(x != 0), 2, 1)


def test_classical_and_of_a_wire_with_itself():
    # x & x and x & ~x fold before synthesis (a Toffoli with one control
    # twice is not a gate).
    x = CIndex(CVar("x0"), Num(0))
    _truth_check(_cfn("same", [2], 1, CBin("&", x, x)), lambda v: v >> 1, 2, 1)
    _truth_check(_cfn("never", [2], 1, CBin("&", x, CNot(x))), lambda v: 0, 2, 1)
    _truth_check(_cfn("always", [2], 1, CBin("|", CNot(x), x)), lambda v: 1, 2, 1)


def test_classical_slices_and_repeat():
    from qbc.ast_nodes import CSlice, CRepeat, CIndex

    body = CBin("^", CSlice(CVar("x0"), Num(0), Num(2)),
                CRepeat(CIndex(CVar("x0"), Num(2)), Num(2)))
    cfn = _cfn("mix", [3], 2, body)

    def fpy(x):
        bits = format(x, "03b")
        lo = bits[:2]
        rep = bits[2] * 2
        return int(lo, 2) ^ int(rep, 2)

    _truth_check(cfn, fpy, 3, 2)


# -- relative-phase AND pairs ---------------------------------------------------


def _bit_exprs(n):
    """Single-bit classical expressions over x0: bit[n]."""
    x0 = CVar("x0")
    vectors = st.one_of(
        st.just(x0), st.just(CNot(x0)),
        st.tuples(st.integers(0, n - 2), st.integers(2, n)).filter(
            lambda t: t[1] - t[0] >= 2).map(
            lambda t: CSlice(x0, Num(t[0]), Num(t[1]))),
    )
    leaves = st.one_of(
        st.integers(0, n - 1).map(lambda i: CIndex(x0, Num(i))),
        st.tuples(st.sampled_from(["and", "or", "xor"]), vectors).map(
            lambda t: CReduce(*t)),
    )
    return st.recursive(leaves, lambda inner: st.one_of(
        inner.map(CNot),
        st.tuples(st.sampled_from(["&", "|", "^"]), inner, inner).map(
            lambda t: CBin(*t)),
    ), max_leaves=3)


def _eval_bits(e, bits):
    if isinstance(e, CVar):
        return list(bits)
    if isinstance(e, CIndex):
        return [_eval_bits(e.operand, bits)[e.index.value]]
    if isinstance(e, CSlice):
        return _eval_bits(e.operand, bits)[e.lo.value:e.hi.value]
    if isinstance(e, CNot):
        return [1 - b for b in _eval_bits(e.operand, bits)]
    if isinstance(e, CReduce):
        op = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}[e.op]
        return [functools.reduce(op, _eval_bits(e.operand, bits))]
    op = {"&": operator.and_, "|": operator.or_, "^": operator.xor}[e.op]
    return [op(a, b) for a, b in zip(_eval_bits(e.left, bits),
                                     _eval_bits(e.right, bits))]


def _oracle_matrix(truth, n, mode, pred_bit):
    """U_f over [predicate?, x, y?]: y ^= f(x) (xor) or (-1)^f(x) (sign),
    only where the predicate qubit reads pred_bit."""
    width = n + (mode == "xor") + (pred_bit is not None)
    u = np.zeros((1 << width, 1 << width))
    for i in range(1 << width):
        x = (i >> (mode == "xor")) & ((1 << n) - 1)
        active = pred_bit is None or (i >> (width - 1)) == int(pred_bit)
        f = truth[x] if active else 0
        if mode == "xor":
            u[i ^ f, i] = 1.0
        else:
            u[i, i] = -1.0 if f else 1.0
    return u


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_embed_unitary_is_exact_with_and_without_relative_phase_pairs(data):
    """Flagged AND pairs decompose into relative-phase Toffolis; the embed's
    unitary must stay exactly U_f (no phase slack) across peephole on/off x
    decompose on/off, with and without a predicate, plain and adjoint."""
    n = data.draw(st.integers(2, 4), label="n")
    body = data.draw(_bit_exprs(n), label="body")
    pred_bit = data.draw(st.sampled_from("01"), label="predicate")
    cfn = _cfn("f", [n], 1, body)
    truth = [_eval_bits(body, [(x >> (n - 1 - i)) & 1 for i in range(n)])[0]
             for x in range(1 << n)]
    for mode, pb, adj in product(("xor", "sign"), (None, pred_bit), (False, True)):
        pred = None if pb is None else basis(lit(pb))
        gates, width, anc = embed_gates(cfn, mode, pred)
        assume(2 * width + anc <= 16)
        if adj:
            gates = adjoint_gates(gates)
        want = _oracle_matrix(truth, n, mode, pb)
        for peep, dec in product((False, True), repeat=2):
            m = QCircModule({"main": gates_to_fn("main", width, gates, anc)}, "main")
            if peep:
                peephole(m)
            if dec:
                decompose_multicontrol(m)
                assert all(op.num_controls <= 1 for op in m.entry_fn.ops
                           if op.kind == "gate")
            verify_circuit(m)
            got = module_unitary(m.entry_fn)
            assert np.allclose(got, want, atol=1e-9), (mode, pb, adj, peep, dec)


@pytest.mark.parametrize("mode", ["xor", "sign"])
@pytest.mark.parametrize("pred", [lit("01", "10"), lit("m")],
                         ids=["two_patterns", "pm"])
def test_predicated_embed_controls_only_its_copy_or_kick(mode, pred):
    # all_ones of three bits computes two ANDs (the sign kick turns the
    # second into a CZ). They run unconditionally and keep their pair flags;
    # the predicate controls only the copy or the kick.
    cfn = _cfn("all_ones", [3], 1, CReduce("and", CVar("x0")))
    gates, width, anc = embed_gates(cfn, mode, basis(pred))
    ands = 2 if mode == "xor" else 1
    paired = [gt for gt in gates if gt.pair]
    assert sorted(gt.pair for gt in paired) == [-1] * ands + [1] * ands
    assert all(min(gt.controls) >= pred.dim for gt in paired)
    proj = span_projector(basis(pred))
    u_f = _oracle_matrix([int(x == 7) for x in range(8)], 3, mode, None)
    want = np.kron(proj, u_f) + np.kron(np.eye(len(proj)) - proj,
                                        np.eye(len(u_f)))
    for peep, dec in product((False, True), repeat=2):
        m = QCircModule({"main": gates_to_fn("main", width, gates, anc)}, "main")
        if peep:
            peephole(m)
        if dec:
            decompose_multicontrol(m)
        verify_circuit(m)
        assert np.allclose(module_unitary(m.entry_fn), want, atol=1e-9), \
            (peep, dec)


_A, _B = CIndex(CVar("x0"), Num(0)), CIndex(CVar("x0"), Num(1))


@pytest.mark.parametrize("body,widths,ands", [
    (CNot(CBin("^", _A, _A)), [1], 0),
    (CNot(CReduce("and", CVar("x0"))), [3], 2),
    # The X conjugates a wire that is also the AND's control.
    (CBin("^", CNot(_A), CBin("&", _A, _B)), [2], 1),
], ids=["constant_true", "nand", "not_a_xor_and"])
@pytest.mark.parametrize("pred", [lit("1"), lit("01", "10"), lit("m")],
                         ids=["one", "two_patterns", "pm"])
def test_predicated_negated_kick_controls_only_its_z_gates(body, widths,
                                                           ands, pred):
    # U.C(V).U^dag = C(U.V.U^dag) for U on data wires: the two X gates that
    # negate the kick run unconditionally and every Z takes the predicate.
    cfn = _cfn("f", widths, 1, body)
    gates, width, anc = embed_gates(cfn, "sign", basis(pred))
    p = pred.dim
    kick_xs = [gt for gt in gates
               if gt.kind is GateKind.X and not gt.pair and gt.targets[0] >= p]
    assert len(kick_xs) == 2 and all(not gt.controls for gt in kick_xs)
    zs = [gt for gt in gates if gt.kind is GateKind.Z]
    assert zs and all(set(range(p)) <= set(gt.controls) for gt in zs)
    paired = [gt for gt in gates if gt.pair]
    assert sorted(gt.pair for gt in paired) == [-1] * ands + [1] * ands
    n = sum(widths)
    truth = [_eval_bits(body, [(x >> (n - 1 - i)) & 1 for i in range(n)])[0]
             for x in range(1 << n)]
    proj = span_projector(basis(pred))
    u_f = _oracle_matrix(truth, n, "sign", None)
    want = np.kron(proj, u_f) + np.kron(np.eye(len(proj)) - proj,
                                        np.eye(len(u_f)))
    for peep, dec in product((False, True), repeat=2):
        m = QCircModule({"main": gates_to_fn("main", width, gates, anc)}, "main")
        if peep:
            peephole(m)
        if dec:
            decompose_multicontrol(m)
        verify_circuit(m)
        assert np.allclose(module_unitary(m.entry_fn), want, atol=1e-9), \
            (peep, dec)


def test_predicated_constant_kick_emits_no_cx():
    # -I on the kick's ancilla is X.Z.X.Z, and only its Z gates take the
    # predicate's control.
    src = """\
classical f[N](s: bit[N]) -> bit[1] {
    xor_reduce(s)
}

qpu main() -> bit[2] {
    ('p' + 'p') | ({'1'} & (f('1').sign + id)) | pm[2].measure
}
"""
    for level in (0, 1):
        qasm = compile_source(src, "kick.qw", Options(opt_level=level), "qasm")
        gates = [line.split()[0] for line in qasm.splitlines()
                 if line.split()[0] in ("x", "cx", "cz")]
        assert gates == ["x", "cz", "x", "cz"], (level, qasm)


def test_predicated_sign_oracle_t_count():
    # Controlling only the kick: 23 T at N=4, where controlling every gate
    # of the oracle took 67.
    src = """\
classical all_ones[N](x: bit[N]) -> bit[1] {
    and_reduce(x)
}

qpu main[N]() -> bit[N + 1] {
    ('1' + 'p'[N]) | ({'1'} & all_ones[[N]].sign) | std[N + 1].measure
}
"""
    assert stats_for(src, "oracle.qw", Options(dims={"N": 4})).t_count == 23


def test_sign_oracle_of_one_and_kicks_phase_without_target():
    # and_reduce of three bits: one AND into an ancilla, then a CZ on that
    # ancilla and the third bit; no |-> target and no second ancilla.
    cfn = _cfn("conj", [3], 1, CReduce("and", CVar("x0")))
    gates, width, anc = embed_gates(cfn, "sign", None)
    assert (width, anc) == (3, 1)
    assert [(gt.kind, gt.controls, gt.targets, gt.pair) for gt in gates] == [
        (GateKind.X, (0, 1), (3,), 1),
        (GateKind.Z, (3,), (2,), 0),
        (GateKind.X, (0, 1), (3,), -1),
    ]
    # A negated output computes both ANDs and kicks -Z = X.Z.X onto the
    # last one's wire (position 4); there is still no phase target.
    cfn = _cfn("nand", [3], 1, CNot(CReduce("and", CVar("x0"))))
    gates, width, anc = embed_gates(cfn, "sign", None)
    assert (width, anc) == (3, 2)
    assert [(gt.kind, gt.controls, gt.targets, gt.pair) for gt in gates] == [
        (GateKind.X, (0, 1), (3,), 1),
        (GateKind.X, (3, 2), (4,), 1),
        (GateKind.X, (), (4,), 0),
        (GateKind.Z, (), (4,), 0),
        (GateKind.X, (), (4,), 0),
        (GateKind.X, (3, 2), (4,), -1),
        (GateKind.X, (0, 1), (3,), -1),
    ]


def test_sign_oracle_of_a_constant_puts_its_phase_on_a_fresh_ancilla():
    # A constant-true f has no wire to kick: -I = X.Z.X.Z goes on a fresh
    # ancilla, so a predicate's controls turn it into a relative phase.
    x0 = CIndex(CVar("x0"), Num(0))
    cfn = _cfn("one", [1], 1, CNot(CBin("^", x0, x0)))
    gates, width, anc = embed_gates(cfn, "sign", None)
    assert (width, anc) == (1, 1)
    assert gates == [g(GateKind.X, 1), g(GateKind.Z, 1), g(GateKind.X, 1),
                     g(GateKind.Z, 1)]
    assert np.allclose(u_of(gates, 2), -np.eye(4), atol=1e-9)
    # A constant-false f kicks nothing.
    gates, _, anc = embed_gates(_cfn("zero", [1], 1, CBin("^", x0, x0)),
                                "sign", None)
    assert (gates, anc) == ([], 0)


@pytest.mark.parametrize("name", ["bv", "dj"])
def test_xor_sign_oracle_needs_no_phase_target(name):
    # bv and dj kick one Z per input bit their parity reads, at -O0 too, so
    # the register holds exactly the N=4 input qubits.
    path = BENCH / f"{name}.qw"
    qasm = compile_source(path.read_text(), str(path), Options(opt_level=0),
                          "qasm")
    assert "qubit[4] q;" in qasm
