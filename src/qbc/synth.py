"""
Gate synthesis for basis translations and classical functions.

A translation circuit has the shape: unconditional standardizations
outermost, conditional standardizations controlled on predicate patterns,
input vector phases (negated), one permutation circuit per aligned element
pair (controlled on the other predicate pairs), output vector phases, and
the destandardizations mirrored on the way out.

Classical functions become compute-copy-uncompute networks: AND/OR nodes
compute into fresh ancillas via (possibly negated) Toffolis, XOR structure
is streamed directly onto targets as CNOT chains, and every ancilla is
uncomputed and released clean. Each AND's Toffoli is flagged as one half of
a mirrored pair, which decomposition may realize with relative-phase
Toffolis. A sign oracle has no target: it kicks its phase straight onto the
wires f XORs, with one Z each, or with a CZ when f is one AND.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional, Sequence

import numpy as np

from .ast_nodes import (
    CBin, CExpr, CIndex, CLit, CNot, CReduce, CRepeat, CSlice, CVar,
    ClassicalFn,
)
from .bases import (
    Basis, BasisElement, BasisLiteral, BasisVector, BuiltinBasis, Padding,
    Prim, basis, builtin_vectors, factor_ordered, fully_spans,
)
from .qcirc import Gate, GateKind, adjoint_gates, g

X, Z, H, S, SDG, P, SWAP = (
    GateKind.X, GateKind.Z, GateKind.H, GateKind.S, GateKind.SDG, GateKind.P,
    GateKind.SWAP,
)

PERMUTATION_LIMIT = 12


class SynthError(Exception):
    pass


# ---------------------------------------------------------------------------
# Standardization planning


@dataclass(frozen=True)
class StdEntry:
    prim: Prim
    dim: int
    offset: int
    conditional: bool


@dataclass(frozen=True)
class StdPlan:
    entries: tuple[StdEntry, ...]


def plan_standardization(b_in: Basis, b_out: Basis) -> tuple[StdPlan, StdPlan]:
    """Standardizations (left) and destandardizations (right) with offsets.

    Inseparable fourier elements standardize as one conditional unit, with
    padding keeping both sides aligned on qubit positions.
    """
    ldq, rdq = deque(_with_offsets(b_in)), deque(_with_offsets(b_out))
    lstd: list[StdEntry] = []
    rstd: list[StdEntry] = []
    while ldq and rdq:
        l, lo = ldq.popleft()
        r, ro = rdq.popleft()
        l_pad = isinstance(l, Padding)
        r_pad = isinstance(r, Padding)
        unconditional = (not l_pad and not r_pad and l.prim is r.prim)
        if l.dim == r.dim:
            if not l_pad:
                lstd.append(StdEntry(l.prim, l.dim, lo, not unconditional))
            if not r_pad:
                rstd.append(StdEntry(r.prim, r.dim, ro, not unconditional))
            continue
        if l.dim > r.dim:
            big, bo, small, so = l, lo, r, ro
            bigstd, smallstd, bigdq = lstd, rstd, ldq
        else:
            big, bo, small, so = r, ro, l, lo
            bigstd, smallstd, bigdq = rstd, lstd, rdq
        delta = big.dim - small.dim
        big_pad = isinstance(big, Padding)
        small_pad = isinstance(small, Padding)
        if not big_pad and big.prim.separable:
            if not small_pad:
                smallstd.append(StdEntry(small.prim, small.dim, so, not unconditional))
            bigstd.append(StdEntry(big.prim, small.dim, bo, not unconditional))
            bigdq.appendleft((BuiltinBasis(big.prim, delta), bo + small.dim))
        else:
            if not small_pad:
                smallstd.append(StdEntry(small.prim, small.dim, so, True))
            if not big_pad:
                bigstd.append(StdEntry(big.prim, big.dim, bo, True))
            bigdq.appendleft((Padding(delta), bo + small.dim))
    if ldq or rdq:
        raise SynthError("standardization planning saw mismatched dims")
    return StdPlan(tuple(lstd)), StdPlan(tuple(rstd))


def qft_gates(qs: Sequence[int]) -> list[Gate]:
    """Textbook QFT circuit over qs (position 0 = most significant)."""
    n = len(qs)
    out = []
    for i in range(n):
        out.append(g(H, qs[i]))
        for k in range(i + 1, n):
            out.append(Gate(P, (qs[i],), (qs[k],), math.pi / (1 << (k - i))))
    for i in range(n // 2):
        out.append(Gate(SWAP, (qs[i], qs[n - 1 - i])))
    return out


def iqft_gates(qs: Sequence[int]) -> list[Gate]:
    return adjoint_gates(qft_gates(qs))


def _entry_gates(entry: StdEntry, stdward: bool) -> list[Gate]:
    qs = list(range(entry.offset, entry.offset + entry.dim))
    if entry.prim is Prim.STD:
        return []
    if entry.prim is Prim.PM:
        return [g(H, q) for q in qs]
    if entry.prim is Prim.IJ:
        out = []
        for q in qs:
            out += [g(SDG, q), g(H, q)] if stdward else [g(H, q), g(S, q)]
        return out
    return iqft_gates(qs) if stdward else qft_gates(qs)


# Predicate groups: (qubit positions, control bit patterns) per predicate
# pair; a circuit copy is emitted for every combination of patterns.
PredGroup = tuple[tuple[int, ...], tuple[str, ...]]


def with_predicates(gates: list[Gate], groups: Sequence[PredGroup]) -> list[Gate]:
    if not gates:
        return []
    if not groups:
        return list(gates)
    out: list[Gate] = []
    all_qubits: tuple[int, ...] = sum((qs for qs, _ in groups), ())
    for combo in iproduct(*[patterns for _, patterns in groups]):
        flips = []
        for (qs, _), pattern in zip(groups, combo):
            for q, bitc in zip(qs, pattern):
                if bitc == "0":
                    flips.append(g(X, q))
        out.extend(flips)
        out.extend(gt.with_controls(all_qubits) for gt in gates)
        out.extend(reversed(flips))
    return out


def emit_standardization(
    plan: StdPlan, stdward: bool, groups: Sequence[PredGroup] = ()
) -> list[Gate]:
    """Unconditional entries outermost, conditional entries controlled."""
    first, second = [], []
    for entry in plan.entries:
        gates = _entry_gates(entry, stdward)
        if entry.conditional:
            second.extend(with_predicates(gates, groups))
        else:
            first.extend(gates)
    if stdward:
        return first + second
    return second + first


# ---------------------------------------------------------------------------
# Vector phases


@dataclass(frozen=True)
class PhaseTuple:
    eigenbits: str
    theta: float
    offset: int
    element_index: int


def collect_vector_phases(b: Basis) -> list[PhaseTuple]:
    """The nonzero phases of b's literal vectors; a zero phase, of either
    sign, is the identity and emits nothing."""
    out = []
    for i, (e, at) in enumerate(_with_offsets(b)):
        if isinstance(e, BasisLiteral):
            for v in e.vectors:
                if v.phase is not None and v.phase != 0.0:
                    if not isinstance(v.phase, float):
                        raise SynthError("unresolved symbolic phase")
                    out.append(PhaseTuple(v.eigenbits, v.phase, at, i))
    return out


def _element_groups(b: Basis, skip_index: int) -> list[PredGroup]:
    """Control groups from the other non-fully-spanning elements of b."""
    groups = []
    for i, (e, at) in enumerate(_with_offsets(b)):
        if i != skip_index and isinstance(e, BasisLiteral) and not fully_spans(e):
            qs = tuple(range(at, at + e.dim))
            patterns = tuple(sorted(v.eigenbits for v in e.vectors))
            groups.append((qs, patterns))
    return groups


def emit_vector_phases(b: Basis, sign: int) -> list[Gate]:
    """X-conjugated multi-controlled P(sign * theta) per phased vector."""
    out: list[Gate] = []
    for tup in collect_vector_phases(b):
        qs = list(range(tup.offset, tup.offset + len(tup.eigenbits)))
        target = qs[-1]
        controls = tuple(qs[:-1])
        flips = [g(X, q) for q, bitc in zip(qs, tup.eigenbits) if bitc == "0"]
        gates = flips + [
            Gate(P, (target,), controls, sign * tup.theta)
        ] + list(reversed(flips))
        out.extend(with_predicates(gates, _element_groups(b, tup.element_index)))
    return out


# ---------------------------------------------------------------------------
# Alignment


def standardize_element(e: BasisElement) -> BasisElement:
    """Swap the element's primitive basis to std and strip vector phases."""
    if isinstance(e, BuiltinBasis):
        return BuiltinBasis(Prim.STD, e.dim)
    assert isinstance(e, BasisLiteral)
    return BasisLiteral(
        tuple(BasisVector(Prim.STD, v.eigenbits) for v in e.vectors)
    )


def _as_literal(e: BasisElement) -> BasisLiteral:
    if isinstance(e, BasisLiteral):
        return e
    assert isinstance(e, BuiltinBasis) and e.prim is Prim.STD
    return BasisLiteral(tuple(builtin_vectors(e)))


def _literal_product(a: BasisLiteral, b: BasisLiteral) -> BasisLiteral:
    return BasisLiteral(tuple(
        BasisVector(Prim.STD, u.eigenbits + v.eigenbits)
        for u in a.vectors
        for v in b.vectors
    ))


@dataclass(frozen=True)
class AlignedPair:
    b_in: BasisElement
    b_out: BasisElement
    offset: int

    @property
    def dim(self) -> int:
        return self.b_in.dim

    @property
    def is_predicate(self) -> bool:
        return isinstance(self.b_in, BasisLiteral) and not fully_spans(self.b_in)


def align(b_in: Basis, b_out: Basis) -> list[AlignedPair]:
    """Pair up equal-dimension, literal-matched elements (factored or merged)."""
    ldq: deque = deque(standardize_element(e) for e in b_in.elements)
    rdq: deque = deque(standardize_element(e) for e in b_out.elements)
    pairs: list[AlignedPair] = []
    offset = 0
    while ldq and rdq:
        l = ldq.popleft()
        r = rdq.popleft()
        if l.dim == r.dim:
            if isinstance(l, BuiltinBasis) and isinstance(r, BasisLiteral):
                l = _as_literal(l)
            elif isinstance(r, BuiltinBasis) and isinstance(l, BasisLiteral):
                r = _as_literal(r)
            pairs.append(AlignedPair(l, r, offset))
            offset += l.dim
            continue
        if l.dim > r.dim:
            big, small, bigdq, big_left = l, r, ldq, True
        else:
            big, small, bigdq, big_left = r, l, rdq, False
        delta = big.dim - small.dim
        if isinstance(big, BuiltinBasis):
            factor: BasisElement = BuiltinBasis(Prim.STD, small.dim)
            if not isinstance(small, BuiltinBasis):
                factor = _as_literal(factor)
            pair = (factor, small) if big_left else (small, factor)
            pairs.append(AlignedPair(pair[0], pair[1], offset))
            offset += small.dim
            bigdq.appendleft(BuiltinBasis(Prim.STD, delta))
            continue
        factored = factor_ordered(big, small.dim)
        if factored is not None:
            prefix, remainder = factored
            small2: BasisElement = small
            if isinstance(small, BuiltinBasis):
                small2 = _as_literal(small)
            pair = (prefix, small2) if big_left else (small2, prefix)
            pairs.append(AlignedPair(pair[0], pair[1], offset))
            offset += small.dim
            bigdq.appendleft(remainder)
            continue
        # Merge the smaller side with its next element until dims agree.
        lv, rv = (_as_literal(big), _as_literal(small)) if big_left else (
            _as_literal(small), _as_literal(big))
        while lv.dim != rv.dim:
            if lv.dim < rv.dim:
                if not ldq:
                    raise SynthError("alignment ran out of elements")
                lv = _literal_product(lv, _as_literal(ldq.popleft()))
            else:
                if not rdq:
                    raise SynthError("alignment ran out of elements")
                rv = _literal_product(rv, _as_literal(rdq.popleft()))
        pairs.append(AlignedPair(lv, rv, offset))
        offset += lv.dim
    if ldq or rdq:
        raise SynthError("alignment saw mismatched dims")
    return pairs


def pair_permutation(pair: AlignedPair) -> Optional[list[int]]:
    """Full-space permutation of the pair, identity-extended; None if trivial."""
    if isinstance(pair.b_in, BuiltinBasis):
        assert isinstance(pair.b_out, BuiltinBasis)
        return None
    ins = [v.index for v in pair.b_in.vectors]
    outs = [v.index for v in pair.b_out.vectors]
    assert sorted(ins) == sorted(outs), "aligned pair has unequal vector sets"
    if ins == outs:
        return None
    perm = list(range(1 << pair.dim))
    for x, y in zip(ins, outs):
        perm[x] = y
    return perm


# ---------------------------------------------------------------------------
# Permutation synthesis (bidirectional transformation-based)


def _transform_gates(src: int, dst: int, d: int) -> list[tuple[int, int]]:
    """(controls_mask, target_mask) MCX steps mapping src -> dst.

    Values below min(src, dst) are fixed: set-phase controls cover ones(src),
    clear-phase controls cover ones(dst).
    """
    steps = []
    set_bits = dst & ~src
    clear_bits = src & ~dst
    for k in range(d):
        b = 1 << k
        if set_bits & b:
            steps.append((src, b))
    for k in range(d):
        b = 1 << k
        if clear_bits & b:
            steps.append((dst, b))
    return steps


def _map_values(steps: list[tuple[int, int]], f: np.ndarray,
                inv: np.ndarray) -> None:
    """Send every value of the table ``f`` through the steps in order, in
    place, keeping ``inv`` its inverse.

    A step's target bit is never among its controls, so it pairs the values
    it moves, and each moved entry's new value names its row in ``inv``.
    """
    for controls, target in steps:
        hit = np.flatnonzero(f & controls == controls)
        f[hit] ^= target
        inv[f[hit]] = hit


def synth_permutation(perm: Sequence[int]) -> list[Gate]:
    """Ancilla-free multi-controlled-X network realizing the permutation.

    Bidirectional transformation-based synthesis: rows are fixed in index
    order, transforming whichever of the input/output side needs fewer bit
    flips; output-side gates are emitted reversed after input-side gates.
    The table and its inverse are kept as arrays, so finding a row's source
    is a lookup and each step is one vectorized mask.
    """
    size = len(perm)
    d = size.bit_length() - 1
    if 1 << d != size:
        raise SynthError("permutation table size must be a power of two")
    if d > PERMUTATION_LIMIT:
        raise SynthError(f"permutation too wide ({d} > {PERMUTATION_LIMIT})")
    if sorted(perm) != list(range(size)):
        raise SynthError("not a permutation")
    f = np.array(perm, dtype=np.int64)
    inv = np.empty_like(f)
    inv[f] = np.arange(size)
    gates_in: list[tuple[int, int]] = []
    gates_out: list[tuple[int, int]] = []
    for x in range(size):
        y = int(f[x])
        if y == x:
            continue
        x_in = int(inv[x])
        cost_out = bin(x ^ y).count("1")
        cost_in = bin(x ^ x_in).count("1")
        if cost_out <= cost_in:
            steps = _transform_gates(y, x, d)
            _map_values(steps, f, inv)
            gates_out.extend(steps)
        else:
            # f then reads each row through the steps: the inverse's values
            # go through them backwards.
            steps = _transform_gates(x, x_in, d)
            _map_values(steps[::-1], inv, f)
            gates_in.extend(reversed(steps))
    assert (f == np.arange(size)).all(), "synthesis did not reach identity"

    def to_gate(controls_mask: int, target_mask: int) -> Gate:
        # Bit k of a mask refers to qubit d-1-k (qubit 0 is the MSB).
        target = d - 1 - target_mask.bit_length() + 1
        controls = tuple(
            d - 1 - k for k in range(d - 1, -1, -1) if controls_mask & (1 << k)
        )
        return Gate(X, (target,), controls)

    return [to_gate(c, t) for c, t in gates_in + gates_out[::-1]]


# ---------------------------------------------------------------------------
# Full translation lowering


@functools.lru_cache(maxsize=1024)
def lower_translation(b_in: Basis, b_out: Basis) -> tuple[Gate, ...]:
    """Gates over positions [0, dim) realizing the basis translation.

    Memoized on the pair (a compile meets few distinct translations many
    times): the result is one shared tuple and must not be mutated.
    """
    lstd, rstd = plan_standardization(b_in, b_out)
    pairs = align(b_in, b_out)
    pred_groups: dict[int, PredGroup] = {}
    for i, pair in enumerate(pairs):
        if pair.is_predicate:
            qs = tuple(range(pair.offset, pair.offset + pair.dim))
            patterns = tuple(sorted(v.eigenbits for v in pair.b_in.vectors))
            pred_groups[i] = (qs, patterns)
    all_groups = [pred_groups[i] for i in sorted(pred_groups)]
    _check_predicates_unconditional(lstd, rstd, all_groups)

    gates: list[Gate] = []
    gates += emit_standardization(lstd, stdward=True, groups=all_groups)
    gates += emit_vector_phases(b_in, sign=-1)
    for i, pair in enumerate(pairs):
        perm = pair_permutation(pair)
        if perm is None:
            continue
        base = [gt.shifted(pair.offset) for gt in synth_permutation(perm)]
        others = [pred_groups[j] for j in sorted(pred_groups) if j != i]
        gates += with_predicates(base, others)
    gates += emit_vector_phases(b_out, sign=+1)
    gates += emit_standardization(rstd, stdward=False, groups=all_groups)
    return tuple(gates)


def _check_predicates_unconditional(lstd: StdPlan, rstd: StdPlan,
                                    groups: Sequence[PredGroup]) -> None:
    conditional = set()
    for plan in (lstd, rstd):
        for e in plan.entries:
            if e.conditional:
                conditional.update(range(e.offset, e.offset + e.dim))
    for qs, _ in groups:
        if conditional & set(qs):
            raise SynthError(
                "predicate qubits overlap a conditional standardization; "
                "the translation is not well-typed"
            )


def measurement_rotation(b: Basis) -> tuple[Gate, ...]:
    """Rotate span(b) onto the computational basis (b fully spans)."""
    return lower_translation(b, basis(BuiltinBasis(Prim.STD, b.dim)))


# ---------------------------------------------------------------------------
# Classical synthesis


@dataclass(frozen=True)
class _Bag:
    """XOR of a set of wire positions plus a constant flip."""

    positions: frozenset[int]
    flip: bool

    @staticmethod
    def const(b: bool) -> "_Bag":
        return _Bag(frozenset(), b)

    @staticmethod
    def wire(p: int) -> "_Bag":
        return _Bag(frozenset([p]), False)

    def xor(self, other: "_Bag") -> "_Bag":
        return _Bag(self.positions ^ other.positions, self.flip ^ other.flip)

    def inverted(self) -> "_Bag":
        return _Bag(self.positions, not self.flip)

    @property
    def as_const(self) -> Optional[bool]:
        return self.flip if not self.positions else None


class _ClassicalSynth:
    def __init__(self, n_inputs: int):
        self.segments: list[list[Gate]] = []  # compute segments, in order
        self.next_pos = n_inputs
        self.num_ancillas = 0

    def alloc(self) -> int:
        p = self.next_pos
        self.next_pos += 1
        self.num_ancillas += 1
        return p

    def _materialize(self, bag: _Bag) -> tuple[int, bool]:
        """Reduce a bag to (position, negated) using an ancilla if needed."""
        if len(bag.positions) == 1:
            (p,) = bag.positions
            return p, bag.flip
        anc = self.alloc()
        seg = [Gate(X, (anc,), (p,)) for p in sorted(bag.positions)]
        if bag.flip:
            seg.append(g(X, anc))
        self.segments.append(seg)
        return anc, False

    def and_bags(self, a: _Bag, b: _Bag) -> _Bag:
        ca, cb = a.as_const, b.as_const
        if ca is not None:
            return b if ca else _Bag.const(False)
        if cb is not None:
            return a if cb else _Bag.const(False)
        if a == b:
            return a
        if a == b.inverted():
            return _Bag.const(False)
        pa, na = self._materialize(a)
        pb, nb = self._materialize(b)
        anc = self.alloc()
        flips = [g(X, p) for p, neg in ((pa, na), (pb, nb)) if neg]
        # The uncompute mirrors this Toffoli, and nothing in between changes
        # its controls: the two form a relative-phase pair.
        toffoli = Gate(X, (anc,), (pa, pb), pair=1)
        self.segments.append(flips + [toffoli] + flips[::-1])
        return _Bag.wire(anc)

    def or_bags(self, a: _Bag, b: _Bag) -> _Bag:
        return self.and_bags(a.inverted(), b.inverted()).inverted()

    def eval(self, e: CExpr, env: dict[str, list[_Bag]]) -> list[_Bag]:
        if isinstance(e, CVar):
            return list(env[e.name])
        if isinstance(e, CLit):
            return [_Bag.const(c == "1") for c in e.bits]
        if isinstance(e, CNot):
            return [b.inverted() for b in self.eval(e.operand, env)]
        if isinstance(e, CBin):
            ls = self.eval(e.left, env)
            rs = self.eval(e.right, env)
            if e.op == "^":
                return [a.xor(b) for a, b in zip(ls, rs)]
            if e.op == "&":
                return [self.and_bags(a, b) for a, b in zip(ls, rs)]
            return [self.or_bags(a, b) for a, b in zip(ls, rs)]
        if isinstance(e, CIndex):
            return [self.eval(e.operand, env)[e.index.value]]
        if isinstance(e, CSlice):
            return self.eval(e.operand, env)[e.lo.value : e.hi.value]
        if isinstance(e, CReduce):
            bags = self.eval(e.operand, env)
            if e.op == "xor":
                acc = _Bag.const(False)
                for b in bags:
                    acc = acc.xor(b)
                return [acc]
            acc = bags[0]
            for b in bags[1:]:
                acc = self.and_bags(acc, b) if e.op == "and" else self.or_bags(acc, b)
            return [acc]
        if isinstance(e, CRepeat):
            (b,) = self.eval(e.operand, env)
            return [b] * e.count.value
        raise SynthError(f"bad classical node {type(e).__name__}")


def _phase_kick(segments: list[list[Gate]], bag: _Bag) -> Optional[list[Gate]]:
    """The last segment with its Toffoli turned into a CZ on the AND's
    inputs, if ``bag`` is exactly that AND's wire; else None."""
    if not segments or bag.flip:
        return None
    toffoli = next((gt for gt in segments[-1] if gt.pair), None)
    if toffoli is None or bag.positions != {toffoli.targets[0]}:
        return None
    a, b = toffoli.controls
    return [Gate(Z, (b,), (a,)) if gt is toffoli else gt for gt in segments[-1]]


def synth_classical(cfn: ClassicalFn, mode: str) -> tuple[list[Gate], int, int, int]:
    """Build U_f gates; returns (gates, n_inputs, n_outputs, n_ancillas).
    The gates are ``_classical_parts``' compute, middle and uncompute.
    """
    compute, middle, n, anc = _classical_parts(cfn, mode)
    gates = compute + middle + adjoint_gates(compute)
    return gates, n, cfn.embed_width(mode) - n, anc


def _classical_parts(cfn: ClassicalFn,
                     mode: str) -> tuple[list[Gate], list[Gate], int, int]:
    """U_f as (compute, middle, n_inputs, n_ancillas); the uncompute is the
    compute's adjoint.

    Every AND computes into a fresh ancilla with a Toffoli flagged as the
    compute half of a mirrored pair (``Gate.pair``), and the uncompute runs
    the compute segments' adjoints in reverse, so all ancillas finish at |0>.

    xor mode lays out [inputs, outputs, ancillas]; outputs receive
    y ^= f(x) via CNOT chains. sign mode lays out [inputs, ancillas] and
    applies (-1)^f(x) as a phase kick between compute and uncompute, with no
    phase target. When f's output is exactly the last AND's wire (not
    negated), that AND's Toffoli becomes a CZ on its two inputs and its
    ancilla goes unused. Otherwise f is an XOR of wires, each of which gets
    a Z; a negated f makes the first of them X.Z.X, which is -Z. A
    constant-true f applies -I as X.Z.X.Z on one fresh ancilla, so that a
    predicate's controls make it a relative phase.
    """
    n = sum(p.type.dim.value for p in cfn.params)
    synth = _ClassicalSynth(cfn.embed_width(mode))
    env: dict[str, list[_Bag]] = {}
    at = 0
    for p in cfn.params:
        d = p.type.dim.value
        env[p.name] = [_Bag.wire(at + i) for i in range(d)]
        at += d

    bags = synth.eval(cfn.body, env)
    segments = synth.segments
    if mode == "xor":
        middle: list[Gate] = []
        for j, bag in enumerate(bags):
            if bag.flip:
                middle.append(g(X, n + j))
            middle += [Gate(X, (n + j,), (p,)) for p in sorted(bag.positions)]
    else:
        (bag,) = bags
        middle = _phase_kick(segments, bag)
        if middle is not None:
            # The last AND's ancilla is the highest position, and no gate
            # touches it any more.
            segments = segments[:-1]
            synth.num_ancillas -= 1
        else:
            middle = [g(Z, p) for p in sorted(bag.positions)]
        if bag.flip:
            # -Z is X.Z.X. A constant-true f has no wire to flip, so it puts
            # -I = X.Z.X.Z on a fresh ancilla.
            middle = middle or [g(Z, synth.alloc())] * 2
            x = g(X, middle[0].targets[0])
            middle = [x, middle[0], x] + middle[1:]
    compute = [gt for seg in segments for gt in seg]
    return compute, middle, n, synth.num_ancillas


def embed_gates(cfn: ClassicalFn, mode: str,
                pred: Optional[Basis]) -> tuple[list[Gate], int, int]:
    """Gates for an embed op: (gates, data width, ancilla count).

    With a predicate, data positions shift right by pred.dim and only the
    middle of U_f, the copy to the outputs or the phase kick, is controlled
    on the predicate patterns, with the predicate's own primitive bases
    standardized around it. The ANDs' compute and uncompute run
    unconditionally: they only write ancillas that the uncompute returns to
    |0>, so they keep their relative-phase pair flags (``Gate.pair``).
    """
    compute, middle, _, anc = _classical_parts(cfn, mode)
    width = cfn.embed_width(mode)
    uncompute = adjoint_gates(compute)
    if pred is None:
        return compute + middle + uncompute, width, anc
    p = pred.dim
    groups = _element_groups(pred, skip_index=-1)
    plan = StdPlan(tuple(
        StdEntry(e.prim, e.dim, off, False)
        for e, off in _with_offsets(pred)
        if not isinstance(e, Padding)
    ))
    gates = [gt.shifted(p) for gt in compute]
    gates += emit_standardization(plan, stdward=True)
    gates += with_predicates([gt.shifted(p) for gt in middle], groups)
    gates += emit_standardization(plan, stdward=False)
    gates += [gt.shifted(p) for gt in uncompute]
    return gates, p + width, anc


def _with_offsets(b: Basis):
    at = 0
    for e in b.elements:
        yield e, at
        at += e.dim
