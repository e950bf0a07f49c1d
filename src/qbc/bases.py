"""
Basis algebra: primitive bases, basis vectors, literals and canon-form
bases, and ``align``, the one walk that reads a translation's structure.

``align`` pairs the elements of the two bases left to right, splitting the
wider element of a step where it is a product in vector order and merging
the two sides where it is not. The pairs are both the type rule (the bases
span one space exactly when each pair holds one vector set, with one prim
on each qubit that set pins) and what synthesis builds a translation from.
No step expands a basis into its 2^dim vectors: a merge, the one step that
builds vectors its literals do not hold, builds them only up to
``PERMUTATION_LIMIT`` qubits, and checks a wider one factor by factor.
"""

from __future__ import annotations

import functools
from collections import deque
from enum import Enum
from itertools import accumulate
from typing import Optional, Union

from .diagnostics import CompileError
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


BasisElement = Union[BuiltinBasis, BasisLiteral]


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


def concat(outer: Optional[Basis], inner: Optional[Basis]) -> Optional[Basis]:
    """``outer + inner``, where None is no basis. A predicate is the outer
    basis: its qubits come before those of what it predicates."""
    if outer is None or inner is None:
        return inner if outer is None else outer
    return Basis(outer.elements + inner.elements)


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
    return None


def fully_spans(e: BasisElement) -> bool:
    """Whether a builtin or a literal spans its whole space: a builtin
    always does, a literal when it holds all 2^dim vectors."""
    return isinstance(e, BuiltinBasis) or len(e.vectors) == 2 ** e.dim


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


# ---------------------------------------------------------------------------
# Alignment: the one walk over a translation's structure

# The widest permutation synthesis builds, in qubits.
PERMUTATION_LIMIT = 12

# A predicate: qubit positions and the bit patterns they may hold.
PredGroup = tuple[tuple[int, ...], tuple[str, ...]]


@record(frozen=True)
class AlignedPair:
    """Qubits [offset, offset + dim), where ``b_in``'s vectors go to
    ``b_out``'s in order. Both sides hold one vector set; ``predicate`` is
    the factor of that set that is not full (the qubits it pins, and the
    patterns it lets them hold), None if the set is full. A merge wider
    than ``PERMUTATION_LIMIT`` has no vectors built: its sides are None,
    and synthesis refuses it."""

    offset: int
    dim: int
    b_in: Optional[BasisElement]
    b_out: Optional[BasisElement]
    predicate: Optional[PredGroup] = None


@functools.lru_cache(maxsize=1024)
def align(b_in: Basis, b_out: Basis) -> tuple[AlignedPair, ...]:
    """Pair the elements of two bases of one dim, left to right: the type
    rule of a translation, and the structure synthesis builds it from.

    Each step pops one element per side (a builtin as its std builtin).
    Equal dims pair up. Otherwise the wider one is split at the narrower
    one's width, in vector order: a builtin always splits, a literal when
    it is that prefix (x) remainder. Where it is not, the two sides merge
    into std literals, the narrower side taking its next element until
    both end on one qubit; a builtin gives only the qubits it needs.

    The bases span one space exactly when each pair's two sides hold one
    set of eigenbits and each qubit that set pins (its predicate) has one
    prim on both sides, so that its standardization is unconditional. Cut
    this way, both bases are tensor products over the pairs, each factor
    spanned by its eigenbits in its prims; a pinned qubit with two prims
    would leave that factor invariant under two projectors on the qubit
    that do not commute, which would make the qubit free.

    A mismatch raises an unpositioned ``CompileError``. No step builds
    more vectors than its literals hold but a merge, and that only up to
    ``PERMUTATION_LIMIT`` qubits: that width limits synthesis, which may
    never see the merge if canonicalization fuses the translation into a
    narrower one. Memoized on the pair: expansion, ``qwir.verify`` and
    synthesis all read one alignment.
    """
    ldq: deque = deque(map(_std_builtin, b_in.elements))
    rdq: deque = deque(map(_std_builtin, b_out.elements))
    pairs: list[AlignedPair] = []
    offset = 0
    while ldq:
        lparts, rparts = [ldq.popleft()], [rdq.popleft()]
        l, r = lparts[0], rparts[0]
        if l.dim != r.dim:
            left_wider = l.dim > r.dim
            big, small = (l, r) if left_wider else (r, l)
            if isinstance(big, BuiltinBasis):
                split = (BuiltinBasis(Prim.STD, small.dim),
                         BuiltinBasis(Prim.STD, big.dim - small.dim))
            else:
                split = factor_ordered(big, small.dim)
            if split is None:
                _merge(lparts, rparts, ldq, rdq)
            else:
                (lparts if left_wider else rparts)[0] = split[0]
                (ldq if left_wider else rdq).appendleft(split[1])
        pairs.append(_pair(lparts, rparts, offset))
        offset += pairs[-1].dim
    return tuple(pairs)


def _std_builtin(e: BasisElement) -> BasisElement:
    return BuiltinBasis(Prim.STD, e.dim) if isinstance(e, BuiltinBasis) else e


def _merge(lparts: list, rparts: list, ldq: deque, rdq: deque) -> None:
    """Extend the narrower side with its next element until both sides end
    on one qubit, taking from a builtin only the qubits it needs."""
    sides = ((lparts, ldq), (rparts, rdq))
    width = [lparts[0].dim, rparts[0].dim]
    while width[0] != width[1]:
        s = int(width[1] < width[0])
        parts, dq = sides[s]
        e = dq.popleft()
        need = width[1 - s] - width[s]
        if isinstance(e, BuiltinBasis) and e.dim > need:
            dq.appendleft(BuiltinBasis(Prim.STD, e.dim - need))
            e = BuiltinBasis(Prim.STD, need)
        parts.append(e)
        width[s] += e.dim


def _product(parts: list) -> BasisElement:
    """The one element of ``parts``, or their row-major product as a std
    literal."""
    if len(parts) == 1:
        return parts[0]
    bits = [""]
    for e in parts:
        bits = [a + v.eigenbits for a in bits for v in as_literal(e).vectors]
    return BasisLiteral(tuple(BasisVector(Prim.STD, x) for x in bits))


def _pair(lparts: list, rparts: list, offset: int) -> AlignedPair:
    """The pair of two equal-width runs of elements, or a CompileError if
    their spans differ (``_factors``). A merge past ``PERMUTATION_LIMIT``
    keeps its sides unbuilt."""
    cuts = set(accumulate(e.dim for e in lparts))
    cuts |= set(accumulate(e.dim for e in rparts))
    lf, rf = _factors(lparts, cuts), _factors(rparts, cuts)
    if lf is None or rf is None or any(
            ls != rs or (ls is not None and lp is not rp)
            for (lp, ls), (rp, rs) in zip(lf, rf)):
        raise _mismatch(lparts, rparts)
    dim = sum(e.dim for e in lparts)
    if dim > PERMUTATION_LIMIT and len(lparts) + len(rparts) > 2:
        return AlignedPair(offset, dim, None, None)
    l, r = _product(lparts), _product(rparts)
    if isinstance(l, BuiltinBasis) and isinstance(r, BuiltinBasis):
        return AlignedPair(offset, dim, l, r)
    # A builtin opposite a literal: the literal is full.
    l, r = as_literal(l), as_literal(r)
    index = {v.index for v in l.vectors}
    if len(index) == 1 << dim:
        return AlignedPair(offset, dim, l, r)
    pinned = [q for q in range(dim)
              if any(i ^ (1 << (dim - 1 - q)) not in index for i in index)]
    patterns = {"".join(v.eigenbits[q] for q in pinned) for v in l.vectors}
    return AlignedPair(offset, dim, l, r,
                       (tuple(offset + q for q in pinned), tuple(sorted(patterns))))


def _factors(parts: list, cuts: set[int]) -> Optional[list]:
    """Each element of ``parts`` cut at the ``cuts`` inside it, as (prim,
    eigenbit set) factors, a full set as None; None where a literal's set
    is no product at a cut. Two runs span one space exactly when, cut at
    both runs' element ends, their factors are equal, each set that is not
    full in one prim on both sides: the product-set form of the rule in
    ``align``, which builds no vector a literal does not hold."""
    out = []
    start = 0
    for e in parts:
        bits = None if isinstance(e, BuiltinBasis) else {
            v.eigenbits for v in e.vectors}
        ends = sorted(c for c in cuts if start < c <= start + e.dim)
        for a, b in zip([start] + ends, ends):
            n = b - a
            if bits is None:
                out.append((e.prim, None))
                continue
            head, tail = {x[:n] for x in bits}, {x[n:] for x in bits}
            if len(head) * len(tail) != len(bits):
                return None
            out.append((e.prim, None if len(head) == 1 << n else head))
            bits = tail
        start += e.dim
    return out


def _mismatch(lparts: list, rparts: list) -> CompileError:
    left, right = (" + ".join(map(str, parts)) for parts in (lparts, rparts))
    return CompileError(
        "translation sides span different spaces (basis elements span "
        f"different spaces: {left} vs {right})")


def as_literal(e: BasisElement) -> BasisLiteral:
    """The element as a literal: a literal itself, or a separable builtin's
    vectors in index order."""
    if isinstance(e, BasisLiteral):
        return e
    assert e.prim.separable
    return BasisLiteral(tuple(
        BasisVector(e.prim, format(k, f"0{e.dim}b")) for k in range(1 << e.dim)
    ))
