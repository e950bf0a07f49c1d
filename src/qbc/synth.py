"""
Gate synthesis for basis translations and classical functions.

A translation circuit has the shape: unconditional standardizations
outermost, conditional standardizations controlled on predicate patterns,
input vector phases (negated), one permutation circuit per aligned element
pair (controlled on the other predicate pairs), output vector phases, and
the destandardizations mirrored on the way out. A standardization is
unconditional where the other side puts the same prim on the same qubits:
each side is planned against the other's element boundaries.

Classical functions become compute-copy-uncompute networks: AND/OR nodes
compute into fresh ancillas via (possibly negated) Toffolis, XOR structure
is streamed directly onto targets as CNOT chains, and every ancilla is
uncomputed and released clean. Each AND's Toffoli is flagged as one half of
a mirrored pair, which decomposition may realize with relative-phase
Toffolis. A sign oracle has no target: it kicks its phase straight onto the
wires f XORs, with one Z each, or with a CZ when f is one AND.

A translation is built from ``bases.align``, the walk that is also its
type rule in expansion and in ``qwir.verify``. Each aligned pair's
predicate is the factor of its vector set that is not full, and the type
rule standardizes every predicate qubit unconditionally, so every
alignment synthesizes. One translation is still a diagnostic here: a pair
wider than ``PERMUTATION_LIMIT`` qubits, merged or not, since
canonicalization may fuse it into a narrower one first. The type rule
checks a merge that wide without building its vectors.
"""

from __future__ import annotations

import functools
import math
from itertools import groupby, product as iproduct
from operator import itemgetter
from typing import Optional, Sequence

from .ast_nodes import (
    CBin, CExpr, CIndex, CLit, CNot, CReduce, CSlice, CVar, ClassicalFn,
)
from .bases import (
    PERMUTATION_LIMIT, AlignedPair, Basis, BasisLiteral, BuiltinBasis,
    PredGroup, Prim, align, basis, fully_spans,
)
from .diagnostics import CompileError
from .qcirc import Gate, H, P, S, SDG, SWAP, X, Z, adjoint_gates, g
from .record import record


# ---------------------------------------------------------------------------
# Standardization planning


@record(frozen=True)
class StdEntry:
    prim: Prim
    dim: int
    offset: int
    conditional: bool


def plan_standardization(
    b_in: Basis, b_out: Basis
) -> tuple[tuple[StdEntry, ...], tuple[StdEntry, ...]]:
    """Standardizations (left) and destandardizations (right), each side
    planned against the other side's element boundaries, in offset order.

    A fourier element is one entry, unconditional only where the other side
    has a fourier element on exactly its qubits. Any other element is cut
    wherever an element of the other side starts or ends, and each piece is
    conditional where the other side's element over it has another prim.
    """
    return _plan_side(b_in, b_out), _plan_side(b_out, b_in)


def _plan_side(side: Basis, other: Basis) -> tuple[StdEntry, ...]:
    spans = [(at, at + e.dim, e.prim) for e, at in _with_offsets(other)]
    plan = []
    for e, lo in _with_offsets(side):
        hi = lo + e.dim
        if not e.prim.separable:
            exact = (lo, hi, e.prim) in spans
            plan.append(StdEntry(e.prim, e.dim, lo, not exact))
            continue
        for start, end, prim in spans:
            if start < hi and end > lo:
                at = max(lo, start)
                plan.append(StdEntry(e.prim, min(hi, end) - at, at,
                                     prim is not e.prim))
    return tuple(plan)


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


def std_gates(prim: Prim, qs: Sequence[int], stdward: bool) -> list[Gate]:
    """Gates taking qubits ``qs`` from basis ``prim`` to std (``stdward``),
    or from std back to ``prim``."""
    if prim is Prim.STD:
        return []
    if prim is Prim.PM:
        return [g(H, q) for q in qs]
    if prim is Prim.IJ:
        out = []
        for q in qs:
            out += [g(SDG, q), g(H, q)] if stdward else [g(H, q), g(S, q)]
        return out
    return iqft_gates(qs) if stdward else qft_gates(qs)


def with_predicates(gates: list[Gate], groups: Sequence[PredGroup]) -> list[Gate]:
    """``gates`` controlled on each group's qubits holding one of its
    patterns: one copy per combination of patterns."""
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
    plan: Sequence[StdEntry], stdward: bool, groups: Sequence[PredGroup] = ()
) -> list[Gate]:
    """Unconditional entries outermost, conditional entries controlled."""
    first, second = [], []
    for entry in plan:
        qs = range(entry.offset, entry.offset + entry.dim)
        gates = std_gates(entry.prim, qs, stdward)
        if entry.conditional:
            second.extend(with_predicates(gates, groups))
        else:
            first.extend(gates)
    if stdward:
        return first + second
    return second + first


# ---------------------------------------------------------------------------
# Vector phases


@record(frozen=True)
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
# Aligned pairs


def pair_permutation(pair: AlignedPair) -> Optional[list[int]]:
    """Full-space permutation of the pair, identity-extended; None if
    trivial. A merge too wide to build is a diagnostic."""
    if pair.b_in is None:
        raise CompileError(
            f"permutation too wide ({pair.dim} > {PERMUTATION_LIMIT})")
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


def _map_values(steps: list[tuple[int, int]], f: list[int],
                inv: list[int]) -> None:
    """Send every value of the table ``f`` through the steps in order, in
    place, keeping ``inv`` its inverse.

    A step's target bit is never among its controls, so a run of steps with
    the same controls flips the XOR of their targets in exactly the values
    that hold the controls. Those values come in pairs: each v0 = controls
    | s, for s a submask of the bits outside the controls and the lowest
    flipped bit, trades rows with v0 ^ flip. Only those pairs are visited,
    by swapping their rows in ``inv``.
    """
    full = len(f) - 1
    for controls, run in groupby(steps, key=itemgetter(0)):
        flip = 0
        for _, target in run:
            flip ^= target
        free = full & ~(controls | (flip & -flip))
        s = free
        while True:
            v0 = controls | s
            v1 = v0 ^ flip
            a = inv[v0]
            b = inv[v1]
            inv[v0] = b
            inv[v1] = a
            f[a] = v1
            f[b] = v0
            if not s:
                break
            s = (s - 1) & free


def synth_permutation(perm: Sequence[int]) -> list[Gate]:
    """Ancilla-free multi-controlled-X network realizing ``perm``, a
    permutation of ``range(2**d)``; past ``PERMUTATION_LIMIT`` qubits it is
    a diagnostic.

    Bidirectional transformation-based synthesis (Miller, Maslov and
    Dueck, DAC 2003): rows are fixed in index order, transforming whichever
    of the input/output side needs fewer bit flips; output-side gates are
    emitted reversed after input-side gates. The table and its inverse are
    kept as lists of ints, so finding a row's source is a lookup and each
    step touches only the values it moves.
    """
    size = len(perm)
    d = size.bit_length() - 1
    if d > PERMUTATION_LIMIT:
        raise CompileError(f"permutation too wide ({d} > {PERMUTATION_LIMIT})")
    f = [int(v) for v in perm]
    inv = [0] * size
    for x, y in enumerate(f):
        inv[y] = x
    gates_in: list[tuple[int, int]] = []
    gates_out: list[tuple[int, int]] = []
    for x in range(size):
        y = f[x]
        if y == x:
            continue
        x_in = inv[x]
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
    assert f == list(range(size)), "synthesis did not reach identity"

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
    groups = [pair.predicate for pair in pairs if pair.predicate]

    gates: list[Gate] = []
    gates += emit_standardization(lstd, stdward=True, groups=groups)
    gates += emit_vector_phases(b_in, sign=-1)
    for pair in pairs:
        perm = pair_permutation(pair)
        if perm is None:
            continue
        base = [gt.shifted(pair.offset) for gt in synth_permutation(perm)]
        others = [p.predicate for p in pairs if p.predicate and p is not pair]
        gates += with_predicates(base, others)
    gates += emit_vector_phases(b_out, sign=+1)
    gates += emit_standardization(rstd, stdward=False, groups=groups)
    return tuple(gates)


def measurement_rotation(b: Basis) -> tuple[Gate, ...]:
    """Rotate span(b) onto the computational basis (b fully spans)."""
    return lower_translation(b, basis(BuiltinBasis(Prim.STD, b.dim)))


# ---------------------------------------------------------------------------
# Classical synthesis


@record(frozen=True)
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
        (b,) = self.eval(e.operand, env)  # CRepeat
        return [b] * e.count.value


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
    predicate's controls on its Z gates make it a relative phase. In sign
    mode every X of the middle is such a conjugation.
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
    |0>, so they keep their relative-phase pair flags (``Gate.pair``). The
    X gates that negate a sign kick run unconditionally too, since
    U·C(V)·U† = C(U·V·U†) for a U on data wires: only the kick's Z gates
    take the predicate's controls.
    """
    compute, middle, _, anc = _classical_parts(cfn, mode)
    width = cfn.embed_width(mode)
    uncompute = adjoint_gates(compute)
    if pred is None:
        return compute + middle + uncompute, width, anc
    p = pred.dim
    groups = _element_groups(pred, skip_index=-1)
    plan = plan_standardization(pred, pred)[0]
    gates = [gt.shifted(p) for gt in compute]
    gates += emit_standardization(plan, stdward=True)
    for conj, run in groupby(middle,
                             key=lambda gt: mode == "sign" and gt.kind is X):
        run = [gt.shifted(p) for gt in run]
        gates += run if conj else with_predicates(run, groups)
    gates += emit_standardization(plan, stdward=False)
    gates += [gt.shifted(p) for gt in uncompute]
    return gates, p + width, anc


def _with_offsets(b: Basis):
    at = 0
    for e in b.elements:
        yield e, at
        at += e.dim
