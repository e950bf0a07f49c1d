"""Basis algebra: normalization, factoring, and span-equivalence checking."""

import math
import time
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qbc.bases import (
    Basis,
    BasisLiteral,
    BasisVector,
    BuiltinBasis,
    Prim,
    as_literal,
    basis,
    check_span_equivalence,
    factor_element,
    factor_ordered,
    fully_spans,
    normalize_element,
    validate_literal,
)

from oracles import factor_literal_by_counts, lit, span_projector, spans_equal


def test_normalize_sorts_vectors():
    e = normalize_element(lit("10", "01"))
    assert e == lit("01", "10")


def test_normalize_strips_phases():
    e = normalize_element(lit(("1", math.pi)))
    assert e == lit("1")


def test_normalize_builtin_unchanged():
    e = BuiltinBasis(Prim.PM, 3)
    assert normalize_element(e) == e


def test_normalize_preserves_span():
    for e in [lit("10", "01"), lit(("1", math.pi)), lit("pm", "pp"), lit("ij")]:
        p1 = span_projector(basis(e))
        p2 = span_projector(basis(normalize_element(e)))
        assert np.allclose(p1, p2, atol=1e-9)


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
    dq = deque()
    assert factor_element(lit("10", "11"), lit("1"), dq)
    assert list(dq) == [lit("0", "1")]


def test_factor_literal_full_prefix():
    prefix, rem = factor_ordered(lit("00", "01", "10", "11"), 1)
    assert prefix == lit("0", "1") and rem == lit("0", "1")
    assert spans_equal(
        basis(lit("00", "01", "10", "11")), basis(lit("0", "1"), rem)
    )


def test_factor_literal_prim_mismatch():
    pm_lit = lit("pp", "pm")
    std_lit = lit("0")
    assert factor_ordered(pm_lit, 1) == (lit("p"), lit("p", "m"))
    assert not factor_element(pm_lit, std_lit, deque())


def test_factor_element_prefixes_must_be_the_small_literal():
    # {10, 11} is |1> (x) H2 in order, but its prefix is not '0'.
    assert factor_ordered(lit("10", "11"), 1) == (lit("1"), lit("0", "1"))
    assert not factor_element(lit("10", "11"), lit("0"), deque())


def test_factor_element_fourier():
    dq = deque()
    ok = factor_element(BuiltinBasis(Prim.FOURIER, 3), BuiltinBasis(Prim.FOURIER, 1), dq)
    assert ok and dq[0] == BuiltinBasis(Prim.FOURIER, 2)


def test_factor_element_literal_prefix_from_literal():
    dq = deque()
    ok = factor_element(lit("10", "11"), lit("1"), dq)
    assert ok and dq[0] == lit("0", "1")


def test_factor_element_full_span_prefix_requires_both_prefixes():
    # span{|10>,|11>} = |1> (x) H2, so a fully-spanning 1-qubit *prefix*
    # cannot be factored out; the rank oracle agrees.
    dq = deque()
    assert not factor_element(lit("10", "11"), BuiltinBasis(Prim.STD, 1), dq)
    assert not spans_equal(
        basis(lit("10", "11")), basis(BuiltinBasis(Prim.STD, 1), lit("0"))
    )
    assert not spans_equal(
        basis(lit("10", "11")), basis(BuiltinBasis(Prim.STD, 1), lit("1"))
    )
    # A fully-spanning literal against a fully-spanning small hits the
    # both-full-span case and pushes a builtin remainder.
    ok = factor_element(lit("00", "01", "10", "11"), BuiltinBasis(Prim.STD, 1), dq)
    assert ok and dq[0] == BuiltinBasis(Prim.STD, 1)


def test_factor_element_failure():
    dq = deque()
    assert not factor_element(lit("00", "11"), lit("0"), dq)


def test_span_check_trivial_equal():
    assert check_span_equivalence(basis(lit("01", "10")), basis(lit("10", "01"))) is None


def test_span_check_order_matters():
    # span{|00>,|10>} != span{|00>,|01>}
    left = basis(BuiltinBasis(Prim.STD, 1), lit("0"))
    right = basis(lit("0"), BuiltinBasis(Prim.STD, 1))
    assert check_span_equivalence(left, right) is not None
    assert not spans_equal(left, right)


def test_span_check_dimension_mismatch():
    d = check_span_equivalence(basis(lit("0")), basis(lit("0"), lit("1")))
    assert d is not None


def test_span_check_repeated_literal_scales():
    n = 64
    left = basis(*[lit("0", "1")] * n)
    right = basis(*[lit("1", "0")] * n)
    start = time.monotonic()
    assert check_span_equivalence(left, right) is None
    assert time.monotonic() - start < 1.0


def test_span_check_builtin_vs_full_literal():
    assert check_span_equivalence(
        basis(BuiltinBasis(Prim.PM, 2)), basis(lit("00", "01", "10", "11"))
    ) is None


def test_span_check_fourier_vs_std():
    assert check_span_equivalence(
        basis(BuiltinBasis(Prim.FOURIER, 2)), basis(BuiltinBasis(Prim.STD, 2))
    ) is None


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
            got = check_span_equivalence(b1, b2) is None
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
    got = check_span_equivalence(b1, b2) is None
    want = spans_equal(b1, b2)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(random_basis(max_dim=4))
def test_factoring_soundness(b):
    # Whenever a full-span factor succeeds, projectors must agree.
    for e in b.elements:
        if not isinstance(e, BasisLiteral) or e.dim < 2:
            continue
        norm = normalize_element(e)
        factored = factor_ordered(norm, 1)
        if factored is not None and factored[0] == full_span(e.prim, 1):
            rem = factored[1]
            assert spans_equal(
                basis(norm), basis(BuiltinBasis(e.prim, 1), rem)
            )


@st.composite
def normalized_literal_pair(draw):
    """A normalized literal and a narrower one to factor out of it as a
    prefix; half the time the wide one is a product with the narrow one's
    vectors in front, so that factoring succeeds."""
    prims = [Prim.STD, Prim.PM, Prim.IJ]

    def eigenbits(d):
        bits = [format(k, f"0{d}b") for k in range(1 << d)]
        return sorted(draw(st.lists(st.sampled_from(bits), min_size=1,
                                    unique=True)))

    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    prim = draw(st.sampled_from(prims))
    small = eigenbits(n)
    if draw(st.booleans()):
        big = sorted(p + s for p in small for s in eigenbits(k))
    else:
        big = eigenbits(n + k)
    small_prim = prim if draw(st.booleans()) else draw(st.sampled_from(prims))
    return (BasisLiteral(tuple(BasisVector(prim, b) for b in big)),
            BasisLiteral(tuple(BasisVector(small_prim, b) for b in small)))


@settings(max_examples=400, deadline=None)
@given(normalized_literal_pair())
def test_factor_element_agrees_with_factoring_by_counts(pair):
    # Two full spans take factor_element's builtin shortcut instead.
    big, small = pair
    assume(not (fully_spans(big) and fully_spans(small)))
    dq = deque()
    got = dq[0] if factor_element(big, small, dq) else None
    # A fully spanning prefix is every vector of its dimension in any prim.
    if fully_spans(small):
        small = full_span(big.prim, small.dim)
    assert got == factor_literal_by_counts(big, small)
