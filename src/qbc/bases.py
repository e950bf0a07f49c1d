"""
Basis algebra: primitive bases, basis vectors, literals, and canon-form bases,
plus polynomial-time span-equivalence checking.

Span checking works on two deques of normalized basis elements, popping one
element from each side per iteration and factoring the larger element whenever
dimensions disagree. Factoring is the inverse of taking row-major products of
vector lists, so the whole check runs in polynomial time even for bases whose
expanded vector lists would be exponentially large.
"""

from __future__ import annotations

import functools
from collections import deque
from enum import Enum
from typing import Optional, Union

from .record import record


class Prim(Enum):
    STD = "std"
    PM = "pm"
    IJ = "ij"
    FOURIER = "fourier"

    def __str__(self) -> str:
        return self.value

    @property
    def separable(self) -> bool:
        # An N-qubit std/pm/ij basis factors into N single-qubit bases;
        # fourier[N] with N > 1 does not.
        return self is not Prim.FOURIER


# Qubit-literal characters, position 0 leftmost = qubit 0 = MSB of the index.
CHAR_TO_PRIM_BIT = {
    "0": (Prim.STD, "0"),
    "1": (Prim.STD, "1"),
    "p": (Prim.PM, "0"),
    "m": (Prim.PM, "1"),
    "i": (Prim.IJ, "0"),
    "j": (Prim.IJ, "1"),
}

PRIM_BIT_TO_CHAR = {(p, b): c for c, (p, b) in CHAR_TO_PRIM_BIT.items()}


@record(frozen=True)
class BasisVector:
    """One vector of a basis literal: a prim, eigenbits, and optional phase.

    Bit i of ``eigenbits`` is '1' iff position i is the minus eigenstate of
    ``prim``. ``prim`` is never FOURIER. A zero phase is stored as +0.0, so
    equal vectors (0.0 == -0.0) are also identical and synthesize alike.
    """

    prim: Prim
    eigenbits: str
    phase: Optional[float] = None

    def __post_init__(self):
        assert self.prim is not Prim.FOURIER
        assert self.eigenbits and set(self.eigenbits) <= {"0", "1"}
        if self.phase is not None:
            object.__setattr__(self, "phase", self.phase + 0.0)

    @property
    def dim(self) -> int:
        return len(self.eigenbits)

    @property
    def index(self) -> int:
        return int(self.eigenbits, 2)

    def chars(self) -> str:
        return "".join(PRIM_BIT_TO_CHAR[(self.prim, b)] for b in self.eigenbits)

    def __str__(self) -> str:
        s = f"'{self.chars()}'"
        if self.phase is not None:
            s += f"@{self.phase!r}"
        return s


@record(frozen=True)
class BasisLiteral:
    """A nonempty set of same-prim, same-dim basis vectors written {bv, ...}."""

    vectors: tuple[BasisVector, ...]

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    @property
    def prim(self) -> Prim:
        return self.vectors[0].prim

    def __str__(self) -> str:
        return "{" + ",".join(str(v) for v in self.vectors) + "}"


@record(frozen=True)
class BuiltinBasis:
    """std[N], pm[N], ij[N], or fourier[N]; always fully spans."""

    prim: Prim
    dim: int

    def __str__(self) -> str:
        return f"{self.prim}[{self.dim}]"


@record(frozen=True)
class Padding:
    """Placeholder element used only inside standardization planning."""

    dim: int

    def __str__(self) -> str:
        return f"pad[{self.dim}]"


BasisElement = Union[BuiltinBasis, BasisLiteral, Padding]


@record(frozen=True)
class Basis:
    """Canon form: a flat, nonempty tensor-product list of basis elements."""

    elements: tuple[BasisElement, ...]

    @property
    def dim(self) -> int:
        return sum(e.dim for e in self.elements)

    def __str__(self) -> str:
        return " + ".join(str(e) for e in self.elements)


def basis(*elements: BasisElement) -> Basis:
    return Basis(tuple(elements))


def vector_from_chars(chars: str, phase: Optional[float] = None) -> BasisVector:
    """Parse a uniform-prim qubit literal such as '01' or 'pm' into a vector."""
    prims = {CHAR_TO_PRIM_BIT[c][0] for c in chars}
    if len(prims) != 1:
        raise ValueError(f"mixed primitive bases in basis vector '{chars}'")
    bits = "".join(CHAR_TO_PRIM_BIT[c][1] for c in chars)
    return BasisVector(prims.pop(), bits, phase)


def validate_literal(bl: BasisLiteral) -> Optional[str]:
    """Return None if ``bl`` is a valid literal, else a diagnostic message."""
    dims = {v.dim for v in bl.vectors}
    if len(dims) != 1:
        return "basis literal vectors have mismatched dimensions: " + ", ".join(
            str(v) for v in bl.vectors
        )
    prims = {v.prim for v in bl.vectors}
    if len(prims) != 1:
        return "basis literal vectors have mismatched primitive bases: " + ", ".join(
            str(v) for v in bl.vectors
        )
    seen: dict[str, BasisVector] = {}
    for v in bl.vectors:
        if v.eigenbits in seen:
            return f"duplicate eigenbits in basis literal: {seen[v.eigenbits]} vs {v}"
        seen[v.eigenbits] = v
    if len(bl.vectors) > 2 ** bl.dim:
        return "too many vectors in basis literal"
    return None


def fully_spans(e: BasisElement) -> bool:
    if isinstance(e, BuiltinBasis):
        return True
    if isinstance(e, BasisLiteral):
        return len(e.vectors) == 2 ** e.dim
    raise ValueError("padding has no span")


def normalize_element(e: BasisElement) -> BasisElement:
    """Strip phases and sort literal vectors lexicographically by eigenbits."""
    if isinstance(e, BuiltinBasis):
        return e
    assert isinstance(e, BasisLiteral)
    stripped = [BasisVector(v.prim, v.eigenbits) for v in e.vectors]
    stripped.sort(key=lambda v: v.eigenbits)
    return BasisLiteral(tuple(stripped))


def _is_sorted_literal(e: BasisElement) -> bool:
    if not isinstance(e, BasisLiteral):
        return True
    bits = [v.eigenbits for v in e.vectors]
    return all(v.phase is None for v in e.vectors) and bits == sorted(bits)


def factor_ordered(lit: BasisLiteral, n: int) -> Optional[tuple[BasisLiteral, BasisLiteral]]:
    """Order-preserving prefix factoring: ``lit`` is prefix (x) remainder
    vector for vector, where the prefix holds the first ``n`` qubits and
    both keep ``lit``'s prim; None if it is not."""
    prefixes: list[str] = []
    suffixes: list[str] = []
    for v in lit.vectors:
        if v.eigenbits[:n] not in prefixes:
            prefixes.append(v.eigenbits[:n])
        if v.eigenbits[n:] not in suffixes:
            suffixes.append(v.eigenbits[n:])
    if len(prefixes) * len(suffixes) != len(lit.vectors):
        return None
    expect = [p + s for p in prefixes for s in suffixes]
    if expect != [v.eigenbits for v in lit.vectors]:
        return None
    mk = lambda bits: BasisLiteral(tuple(BasisVector(lit.prim, x) for x in bits))
    return mk(prefixes), mk(suffixes)


def factor_element(
    big: BasisElement, small: BasisElement, bigdeque: deque
) -> bool:
    """Factor ``small`` from ``big``, pushing the remainder onto ``bigdeque``.

    Dispatches over the three factoring cases; returns False on fallthrough
    (which makes the enclosing span check fail).
    """
    assert big.dim > small.dim
    delta = big.dim - small.dim
    if fully_spans(big) and fully_spans(small):
        # Full spans of equal dimension are all the same space, so the
        # remainder can be named with big's prim regardless of structure.
        bigdeque.appendleft(BuiltinBasis(big.prim, delta))
        return True
    if fully_spans(small) and isinstance(big, BasisLiteral):
        # A fully spanning prefix is every vector of its dimension in big's
        # prim; a literal is never Fourier, and the first of them is 0...0.
        small = BasisLiteral(
            tuple(builtin_vectors(BuiltinBasis(big.prim, small.dim))))
    if isinstance(big, BasisLiteral) and isinstance(small, BasisLiteral):
        # Both are normalized, so big factors in order exactly when its
        # span does, and its prefixes must be small's vectors.
        factored = factor_ordered(big, small.dim)
        if factored is not None and factored[0] == small:
            assert _is_sorted_literal(factored[1])
            bigdeque.appendleft(factored[1])
            return True
    return False


@record(frozen=True)
class SpanMismatch:
    """Why a span-equivalence check failed."""

    message: str
    left: Optional[BasisElement] = None
    right: Optional[BasisElement] = None

    def __str__(self) -> str:
        if self.left is not None and self.right is not None:
            return f"{self.message}: {self.left} vs {self.right}"
        return self.message


@functools.lru_cache(maxsize=1024)
def check_span_equivalence(b_in: Basis, b_out: Basis) -> Optional[SpanMismatch]:
    """Return None iff span(b_in) = span(b_out); else a mismatch diagnostic.

    Runs the two-deque pop/compare/factor loop; polynomial in the number of
    elements and vectors, never in 2^dim. Memoized on the pair: both bases
    and the result are frozen, and one compile checks each translation once
    in expansion and again in every ``qwir.verify``.
    """
    ldeque: deque = deque(normalize_element(e) for e in b_in.elements)
    rdeque: deque = deque(normalize_element(e) for e in b_out.elements)
    while ldeque and rdeque:
        left = ldeque.popleft()
        right = rdeque.popleft()
        if left.dim == right.dim:
            # A builtin and a literal are never equal; they share a span
            # only if both fully span.
            if left == right or fully_spans(left) and fully_spans(right):
                continue
            return SpanMismatch("basis elements span different spaces", left, right)
        if left.dim > right.dim:
            big, small, bigdeque = left, right, ldeque
        else:
            big, small, bigdeque = right, left, rdeque
        if not factor_element(big, small, bigdeque):
            return SpanMismatch("cannot factor basis element", left, right)
    if ldeque or rdeque:
        return SpanMismatch("bases have mismatched dimensions")
    return None


def builtin_vectors(e: BuiltinBasis) -> list[BasisVector]:
    """Enumerate a separable builtin's vectors in index order."""
    assert e.prim is not Prim.FOURIER
    return [
        BasisVector(e.prim, format(k, f"0{e.dim}b")) for k in range(1 << e.dim)
    ]
