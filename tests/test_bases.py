"""Basis algebra: literals, order-preserving factoring, and alignment as
the span-equivalence rule."""

import time
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbc import bases
from qbc.bases import (
    AlignedPair,
    Basis,
    BasisLiteral,
    BasisVector,
    BuiltinBasis,
    Prim,
    PERMUTATION_LIMIT,
    align,
    as_literal,
    basis,
    factor_ordered,
    fully_spans,
    validate_literal,
)
from qbc.diagnostics import CompileError
from qbc.expand import expand
from qbc.parser import parse

from oracles import (
    lit, near_miss, random_span_pair, reference_span_equivalence,
    span_projector, spans_equal,
)


def spans_match(b1: Basis, b2: Basis) -> bool:
    """The type rule of ``b1 >> b2``: whether ``align`` pairs them up."""
    try:
        align(b1, b2)
    except CompileError:
        return False
    return True


def test_validate_literal_ok():
    assert validate_literal(lit("01", "10")) is None


def test_validate_literal_duplicate():
    bad = BasisLiteral((BasisVector(Prim.STD, "0"), BasisVector(Prim.STD, "0")))
    assert "duplicate" in validate_literal(bad)


def test_validate_literal_dim_mismatch():
    bad = BasisLiteral((BasisVector(Prim.STD, "0"), BasisVector(Prim.STD, "11")))
    assert "dimension" in validate_literal(bad)


def test_validate_literal_prim_mismatch():
    bad = BasisLiteral((BasisVector(Prim.STD, "0"), BasisVector(Prim.PM, "1")))
    assert "primitive" in validate_literal(bad)


def test_fully_spans():
    assert fully_spans(BuiltinBasis(Prim.STD, 5))
    assert fully_spans(lit("00", "01", "10", "11"))
    assert not fully_spans(lit("0"))


def full_span(prim: Prim, n: int) -> BasisLiteral:
    """Every n-qubit vector of ``prim``, as a sorted literal."""
    return as_literal(BuiltinBasis(prim, n))


def test_factor_full_span_success():
    prefix, rem = factor_ordered(lit("00", "01", "10", "11"), 1)
    assert prefix == full_span(Prim.STD, 1) and rem == lit("0", "1")
    # Oracle: span is H2 (x) span(remainder).
    assert spans_equal(
        basis(lit("00", "01", "10", "11")),
        basis(BuiltinBasis(Prim.STD, 1), rem),
    )


def test_factor_full_span_not_divisible():
    assert factor_ordered(lit("00", "01", "10"), 1) is None


def test_factor_full_span_entangled():
    assert factor_ordered(lit("00", "11"), 1) is None
    # Oracle agrees: not a tensor product with the full 1-qubit space.
    assert not spans_equal(
        basis(lit("00", "11")), basis(BuiltinBasis(Prim.STD, 1), lit("0", "1"))
    )


def test_factor_literal_appendix_case():
    # {'10', '11'} >> {'1'} + {'0', '1'}: the literal splits in order, and
    # the pinned first qubit is the pair's predicate.
    pairs = align(basis(lit("10", "11")), basis(lit("1"), lit("0", "1")))
    assert [(p.b_in, p.b_out, p.predicate) for p in pairs] == [
        (lit("1"), lit("1"), ((0,), ("1",))),
        (lit("0", "1"), lit("0", "1"), None),
    ]


def test_factor_literal_full_prefix():
    prefix, rem = factor_ordered(lit("00", "01", "10", "11"), 1)
    assert prefix == lit("0", "1") and rem == lit("0", "1")
    assert spans_equal(
        basis(lit("00", "01", "10", "11")), basis(lit("0", "1"), rem)
    )


def test_factor_literal_prim_mismatch():
    # {'pp', 'pm'} splits into {'p'} (x) {'p', 'm'}, and its pinned qubit
    # is |p>, not the |0> of the other side.
    pm_lit = lit("pp", "pm")
    assert factor_ordered(pm_lit, 1) == (lit("p"), lit("p", "m"))
    assert not spans_match(basis(pm_lit), basis(lit("0"), BuiltinBasis(Prim.STD, 1)))
    assert spans_match(basis(pm_lit), basis(lit("p"), BuiltinBasis(Prim.STD, 1)))


def test_span_check_trivial_equal():
    assert spans_match(basis(lit("01", "10")), basis(lit("10", "01")))


def test_span_check_order_matters():
    # span{|00>,|10>} != span{|00>,|01>}
    left = basis(BuiltinBasis(Prim.STD, 1), lit("0"))
    right = basis(lit("0"), BuiltinBasis(Prim.STD, 1))
    assert not spans_match(left, right)
    assert not spans_equal(left, right)


def test_span_check_dimension_mismatch():
    # Bases of different dims never reach alignment: expansion compares
    # the dims first.
    src = ("qpu main() -> bit[1] { '0' | ({'0'} >> {'0'} + {'1'}) "
           "| std.measure }")
    with pytest.raises(CompileError, match="translation dimensions differ: 1 vs 2"):
        expand(parse(src), {})


def test_span_check_repeated_literal_scales():
    n = 64
    left = basis(*[lit("0", "1")] * n)
    right = basis(*[lit("1", "0")] * n)
    start = time.monotonic()
    assert spans_match(left, right)
    assert time.monotonic() - start < 1.0


def test_span_check_builtin_vs_full_literal():
    assert spans_match(
        basis(BuiltinBasis(Prim.PM, 2)), basis(lit("00", "01", "10", "11")))


def test_span_check_fourier_vs_std():
    assert spans_match(
        basis(BuiltinBasis(Prim.FOURIER, 2)), basis(BuiltinBasis(Prim.STD, 2)))


def _all_elements_up_to(dim):
    """All basis elements of dimension <= dim (literals over <= 2 qubits)."""
    out = []
    for prim in (Prim.STD, Prim.PM, Prim.IJ):
        for d in range(1, min(dim, 2) + 1):
            bits = [format(k, f"0{d}b") for k in range(1 << d)]
            for r in range(1, len(bits) + 1):
                for combo in combinations(bits, r):
                    out.append(
                        BasisLiteral(tuple(BasisVector(prim, b) for b in combo))
                    )
        for d in range(1, dim + 1):
            out.append(BuiltinBasis(prim, d))
    for d in range(1, dim + 1):
        out.append(BuiltinBasis(Prim.FOURIER, d))
    return out


def _bases_of_dim(dim):
    elements = _all_elements_up_to(dim)
    by_dim = {}
    for e in elements:
        by_dim.setdefault(e.dim, []).append(e)

    def build(remaining):
        if remaining == 0:
            yield ()
            return
        for d in sorted(by_dim):
            if d > remaining:
                break
            for e in by_dim[d]:
                for rest in build(remaining - d):
                    yield (e,) + rest

    return [Basis(els) for els in build(dim)]


@pytest.mark.parametrize("dim", [1, 2])
def test_span_check_agrees_with_oracle_exhaustive(dim):
    all_bases = _bases_of_dim(dim)
    projs = [span_projector(b) for b in all_bases]
    for i, b1 in enumerate(all_bases):
        for j, b2 in enumerate(all_bases):
            got = spans_match(b1, b2)
            want = bool(np.allclose(projs[i], projs[j], atol=1e-9))
            assert got == want, f"{b1} vs {b2}: checker {got}, oracle {want}"


@st.composite
def random_basis(draw, max_dim=3):
    dim = draw(st.integers(1, max_dim))
    elements = []
    left = dim
    while left > 0:
        d = draw(st.integers(1, min(left, 2)))
        prim = draw(st.sampled_from([Prim.STD, Prim.PM, Prim.IJ]))
        if draw(st.booleans()):
            elements.append(BuiltinBasis(prim, d))
        else:
            bits = [format(k, f"0{d}b") for k in range(1 << d)]
            chosen = draw(
                st.lists(st.sampled_from(bits), min_size=1, max_size=len(bits), unique=True)
            )
            elements.append(BasisLiteral(tuple(BasisVector(prim, b) for b in chosen)))
        left -= d
    return Basis(tuple(elements))


@settings(max_examples=300, deadline=None)
@given(random_basis(), random_basis())
def test_span_check_agrees_with_oracle_random(b1, b2):
    if b1.dim != b2.dim:
        return
    got = spans_match(b1, b2)
    want = spans_equal(b1, b2)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(random_basis(max_dim=4))
def test_factoring_soundness(b):
    # Whenever a sorted literal splits off a full one-qubit prefix, its
    # span is that qubit's space times the remainder's.
    for e in b.elements:
        if not isinstance(e, BasisLiteral) or e.dim < 2:
            continue
        norm = BasisLiteral(tuple(sorted(
            (BasisVector(e.prim, v.eigenbits) for v in e.vectors),
            key=lambda v: v.eigenbits)))
        factored = factor_ordered(norm, 1)
        if factored is not None and factored[0] == full_span(e.prim, 1):
            rem = factored[1]
            assert spans_equal(
                basis(norm), basis(BuiltinBasis(e.prim, 1), rem)
            )


# -- alignment ----------------------------------------------------------------


def test_a_pairs_predicate_is_the_part_of_its_set_that_is_pinned():
    # {'10', '11'} >> {'11', '10'} pins its first qubit only; both sides
    # name one set in different orders.
    (pair,) = align(basis(lit("10", "11")), basis(lit("11", "10")))
    assert pair.predicate == ((0,), ("1",))
    (pair,) = align(basis(lit("01", "10")), basis(lit("10", "01")))
    assert pair.predicate == ((0, 1), ("01", "10"))
    (pair,) = align(basis(lit("00", "01", "10", "11")), basis(lit("11", "10", "01", "00")))
    assert pair.predicate is None


def test_a_pinned_qubit_needs_one_prim_on_both_sides():
    assert not spans_match(basis(lit("0")), basis(lit("p")))
    assert not spans_match(basis(lit("01", "11")), basis(lit("pm", "mm")))
    # Free qubits may change prim: {'0', '1'} and {'p', 'm'} are full.
    assert spans_match(basis(lit("0", "1")), basis(lit("p", "m")))
    assert spans_match(basis(lit("00", "10")), basis(BuiltinBasis(Prim.PM, 1), lit("0")))


def test_a_merge_takes_only_what_it_needs_from_a_builtin():
    # The literal {'100', '010', '101', '011'} is no product in vector
    # order, so its first pair merges {'10', '01'} with one qubit of std[14].
    b_in = basis(lit("10", "01"), BuiltinBasis(Prim.STD, 14))
    b_out = basis(lit("100", "010", "101", "011"), BuiltinBasis(Prim.STD, 13))
    pairs = align(b_in, b_out)
    assert [(p.offset, p.dim) for p in pairs] == [(0, 3), (3, 13)]
    assert pairs[0].b_in == lit("100", "101", "010", "011")
    assert pairs[0].predicate == ((0, 1), ("01", "10"))
    assert pairs[1].b_in == pairs[1].b_out == BuiltinBasis(Prim.STD, 13)


def brickwork(n: int) -> tuple[Basis, Basis]:
    """n/2 copies of {'11', '00', '01', '10'} against {'1', '0'}, n/2 - 1
    copies, and {'1', '0'}: no two element boundaries meet inside."""
    mix, one = lit("11", "00", "01", "10"), lit("1", "0")
    k = n // 2
    return basis(*[mix] * k), basis(one, *[mix] * (k - 1), one)


def test_a_merge_wider_than_the_permutation_limit_is_typed_unbuilt():
    # Synthesis refuses a merge past the limit, but canonicalization may
    # fuse it into a narrower one first, so the type rule decides it from
    # the literals' sets, building no vector, and leaves its sides unbuilt.
    (pair,) = align(*brickwork(PERMUTATION_LIMIT))
    assert pair.b_in.dim == PERMUTATION_LIMIT
    for n in (14, 40):
        b_in, b_out = brickwork(n)
        assert align(b_in, b_out) == (AlignedPair(0, n, None, None),)
        dropped = Basis(b_out.elements[:1] + (lit("11", "00", "01"),)
                        + b_out.elements[2:])
        assert not spans_match(b_in, dropped)
        assert not reference_span_equivalence(b_in, dropped)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 8))
def test_a_merge_checked_unbuilt_agrees_with_the_set_walk(rng, dim):
    # With the limit at 1, every merge is checked as one past 12 qubits
    # is, factor by factor: span-equivalent pairs and near misses.
    b1, b2 = random_span_pair(rng, dim)
    if rng.random() < 0.7:
        b1 = near_miss(rng, b1)
    with mock.patch.object(bases, "PERMUTATION_LIMIT", 1):
        try:
            pairs = align.__wrapped__(b1, b2)
        except CompileError:
            pairs = None
    assert (pairs is not None) == reference_span_equivalence(b1, b2), (
        f"{b1} vs {b2}")
    if pairs is not None and dim <= 6:
        assert spans_equal(b1, b2)


def test_alignment_builds_no_vectors_a_literal_does_not_hold():
    # A 40-qubit literal of two vectors against std[40] or a split of it:
    # 2^40 vectors would not fit, so the rule must not build them.
    wide = lit("0" * 40, "1" * 40)
    for other in (basis(BuiltinBasis(Prim.STD, 40)),
                  basis(BuiltinBasis(Prim.PM, 1), BuiltinBasis(Prim.STD, 39))):
        assert not spans_match(basis(wide), other)
        assert not spans_match(other, basis(wide))
    big = basis(BuiltinBasis(Prim.STD, 60), lit("1"))
    assert spans_match(big, basis(lit("0", "1"), BuiltinBasis(Prim.IJ, 59), lit("1")))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_span_check_agrees_with_oracle_on_near_misses(rng, dim):
    # Span-equivalent pairs, and the same with a vector dropped or a prim
    # changed on one side or both.
    b1, b2 = random_span_pair(rng, dim)
    assert spans_match(b1, b2) and spans_equal(b1, b2)
    b1, b2 = near_miss(rng, b1), near_miss(rng, b2) if rng.random() < 0.5 else b2
    assert spans_match(b1, b2) == spans_equal(b1, b2), f"{b1} vs {b2}"


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 12))
def test_span_check_agrees_with_the_set_walk_past_the_dense_oracle(rng, dim):
    b1, b2 = random_span_pair(rng, dim)
    assert spans_match(b1, b2) and reference_span_equivalence(b1, b2)
    b1 = near_miss(rng, b1)
    assert spans_match(b1, b2) == reference_span_equivalence(b1, b2), f"{b1} vs {b2}"

