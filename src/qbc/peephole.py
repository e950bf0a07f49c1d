"""
Gate-level optimization: phase folding over affine parities, cancellation of
adjacent inverse pairs, the HXH/HZH conjugation rules, phase merging, and
decomposition of multi-controlled gates through a relative-phase AND ladder.

Phase folding (Amy, Maslov and Mosca, IEEE TCAD 33(10), 2014) makes one
forward walk per function. Every qubit value holds an affine parity of path
variables: a ``qalloc`` starts at the constant 0 and a qubit parameter at a
fresh variable; X, CX and SWAP update parities, and any other non-diagonal
gate, a conditioned gate, or the target of a multi-controlled X gives its
wires fresh variables. A diagonal gate multiplies each path by a phase that
depends only on its wire's parity, so all such phases on one parity (a term)
can be summed and applied once, wherever that parity is first held. A term
on a constant parity is a global phase and is dropped. Controlled diagonals
such as CZ and CP are left as they are: their terms sit on parities no wire
holds, and emitting them would need new CX gates. Folding leaves the
gates between a term's phases in place, so the X pairs it uncovers are left
for the rewrite rules below. Each diagonal kind's angle is ``qcirc.PHASE``.

The rewrite rules run under a worklist driver. Each function gets one
producer map and one consumer map (value -> (op index, position)) that every
rewrite updates in place. Deleted ops are only marked dead and are dropped
at the end, so an op's index stays its place in program order. Rules fire in
a fixed order: the pair rules and then HXH, at the lowest matching op. An op
that no rewrite touched since it last failed to match cannot match, so only
touched ops are re-queued, with their producers two hops back (HXH looks two
consumers ahead). Every rewrite deletes at least one gate, so the pass takes
linear time. The pair rule cancels a gate followed by its
``qcirc.ADJOINT_KIND`` and merges two P gates into one. Both rules match
gates that all carry one condition, the same (bit, value) or none. Once no
rule matches, a ``qalloc`` whose qubit goes straight to a ``qfreez`` (an
ancilla whose gates were all folded or cancelled) is dropped with it.

Toffolis flagged as halves of a compute/uncompute pair (``QOp.pair``, +1
and -1) decompose into relative-phase Toffolis whose phases cancel only
between the two halves. So the pair rule cancels two gates only when their
flags sum to 0, and HXH, which would change a flagged op's kind and so
strand its partner's phase, never rewrites a flagged op.

Decomposition runs after the rewrite rules and emits nothing they could
cancel. A gate with k >= 2 controls becomes a ladder of relative-phase
Toffolis (``rccx_gates``, 4 T) that ANDs its controls into fresh ancillas,
one exact core, and the mirrored ladder. A rung's relative phase lies on
its controls, which nothing before its mirror changes, so the whole is
exact with no correction gates. C^kZ takes ``ccz_gates`` as its core
rather than H.ccx.H, so no H pair meets at the target.
"""

from __future__ import annotations

import heapq
import math

from .qcirc import (
    ADJOINT_KIND, PHASE, Gate, GateKind, QCircFn, QCircModule, QOp,
    adjoint_gates, append_gates, g,
)

H, X, Y, Z, S, SDG, T, TDG, P, SWAP = (
    GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.SDG,
    GateKind.T, GateKind.TDG, GateKind.P, GateKind.SWAP,
)


def _wiring_match(a: QOp, b: QOp) -> bool:
    """b consumes exactly a's results, controls->controls, targets aligned."""
    if set(b.operands) != set(a.results):
        return False
    amap = dict(zip(a.results, a.operands))  # result -> the wire's pre-a value
    actrl = set(a.operands[: a.num_controls])
    atgt = list(a.operands[a.num_controls:])
    bctrl = {amap[v] for v in b.operands[: b.num_controls]}
    btgt = [amap[v] for v in b.operands[b.num_controls:]]
    if actrl != bctrl:
        return False
    if a.gate is SWAP:
        return set(atgt) == set(btgt)
    return atgt == btgt


class _Rewriter:
    """One function's ops, use-def maps and worklist of gates that may
    match, kept current as rules fire."""

    def __init__(self, fn: QCircFn):
        self.ops = fn.ops
        self.dead = [False] * len(fn.ops)
        self.producer: dict[int, int] = {}  # value -> op index
        self.consumer: dict[int, tuple[int, int]] = {}  # value -> (op, position)
        for i, op in enumerate(fn.ops):
            for r in op.results:
                self.producer[r] = i
            for k, v in enumerate(op.operands):
                self.consumer[v] = (i, k)
        # A min-heap of the gate indices that may match; heap order is
        # program order.
        self.work = [i for i, op in enumerate(fn.ops) if op.kind == "gate"]

    def run(self) -> list[QOp]:
        while self.work:
            i = heapq.heappop(self.work)
            if not self.dead[i] and not self._pair_rules(i):
                self._hxh(i)
        # An ancilla that no gate touches any more is dropped with its free.
        for i, op in enumerate(self.ops):
            if op.kind == "qalloc":
                j, _ = self.consumer[op.results[0]]
                if self.ops[j].kind == "qfreez":
                    self.dead[i] = self.dead[j] = True
        return [op for op, dead in zip(self.ops, self.dead) if not dead]

    def _requeue(self, touched) -> None:
        """Queue the touched ops and their producers up to two hops back."""
        hop = {i for i in touched if not self.dead[i]}
        queued = set(hop)
        for _ in range(2):
            hop = {self.producer[v] for i in hop
                   for v in self.ops[i].operands if v in self.producer}
            queued |= hop
        for i in queued:
            heapq.heappush(self.work, i)

    def _delete(self, indices: set[int], changed=()) -> None:
        """Remove gate ops, forwarding each operand to its result's consumer,
        and re-queue around them and the ``changed`` ops the rule altered."""
        for i in indices:
            self.dead[i] = True
        touched = set(changed)
        for i in sorted(indices):
            op = self.ops[i]
            for v, r in zip(op.operands, op.results):
                loc = self.consumer.pop(r, None)
                if loc is None:
                    del self.consumer[v]
                    continue
                j, pos = loc
                c = self.ops[j]
                c.operands = c.operands[:pos] + (v,) + c.operands[pos + 1:]
                self.consumer[v] = loc
                touched.add(j)
        self._requeue(touched)

    def _pair_rules(self, i: int) -> bool:
        op = self.ops[i]
        if op.kind != "gate":
            return False
        nexts = {self.consumer.get(r) for r in op.results}
        if None in nexts or len({ix for ix, _ in nexts}) != 1:
            return False
        j = next(iter(nexts))[0]
        nxt = self.ops[j]
        if nxt.kind != "gate" or nxt.condition != op.condition:
            return False
        if not _wiring_match(op, nxt) or op.pair + nxt.pair:
            return False
        a, b = op.gate, nxt.gate
        if a is not P and ADJOINT_KIND[a] is b:
            self._delete({i, j})
            return True
        if a is P and b is P:
            theta = op.param + nxt.param
            theta = math.remainder(theta, 2 * math.pi)
            if abs(theta) <= 1e-12:
                self._delete({i, j})
            else:
                op.param = theta
                self._delete({j}, changed={i})
            return True
        return False

    def _hxh(self, i: int) -> bool:
        """H (uncontrolled) conjugating the target of an X or Z gate, all
        three under one condition."""
        first = self.ops[i]
        if first.kind != "gate" or first.gate is not H or first.num_controls:
            return False
        mid_loc = self.consumer.get(first.results[0])
        if mid_loc is None:
            return False
        j, pos = mid_loc
        mid = self.ops[j]
        if mid.kind != "gate" or mid.gate not in (X, Z) \
                or mid.condition != first.condition or mid.pair:
            return False
        if pos < mid.num_controls:
            return False
        last_loc = self.consumer.get(mid.results[pos])
        if last_loc is None:
            return False
        k, _ = last_loc
        last = self.ops[k]
        if last.kind != "gate" or last.gate is not H or last.num_controls \
                or last.condition != first.condition:
            return False
        mid.gate = Z if mid.gate is X else X
        self._delete({i, k}, changed={j})
        return True


def peephole(m: QCircModule) -> QCircModule:
    """Apply the cancellation rule set to a fixpoint on every function.

    Rewrites fire in a fixed order: the pair rules and then HXH, at the
    lowest matching op. A worklist finds that match without rescanning the
    function.
    """
    for fn in m.functions.values():
        fn.ops = _Rewriter(fn).run()
    return m


# ---------------------------------------------------------------------------
# Phase folding

# The fewest of t, tdg, s, sdg and z that make P(k * pi/4), for k = 0..7.
_EIGHTHS = ((), (T,), (S,), (S, T), (Z,), (Z, T), (SDG,), (TDG,))


def _phase_gates(theta: float) -> tuple[tuple[GateKind, float], ...]:
    """(kind, param) of the gates that make P(theta): none for 0, at most
    two Clifford+T gates for a multiple of pi/4, else one ``p``."""
    theta = math.remainder(theta, 2 * math.pi)
    k = round(theta / (math.pi / 4))
    if abs(theta - k * math.pi / 4) <= 1e-12:
        return tuple((kind, 0.0) for kind in _EIGHTHS[k % 8])
    return ((P, theta),)


def fold_phases(m: QCircModule) -> QCircModule:
    """Merge the uncontrolled, unconditioned diagonal gates of each function
    that sit on one affine parity (see the module docstring).

    A term of one gate on a non-constant parity is left alone. Any other
    term on a non-constant parity becomes ``_phase_gates`` of its summed
    angle at its first gate, unless its gates are those already; a term on
    a constant parity is deleted. No term gains gates, and the circuit is
    unchanged up to a global phase.
    """
    for fn in m.functions.values():
        _fold_fn(fn)
    return m


def _fold_fn(fn: QCircFn) -> None:
    # A parity is (the set of its path variables, its constant bit). Sets
    # rather than bitmasks: a mask is as wide as the number of variables
    # made so far, so its XORs and hashes would slow as the walk goes on.
    parity: dict[int, tuple[frozenset, int]] = {}
    made = 0

    def var() -> tuple[frozenset, int]:
        nonlocal made
        made += 1
        return frozenset((made,)), 0

    for v in fn.qubit_params:
        parity[v] = var()
    # Variable set -> [summed angle, op indices, first op's constant bit].
    terms: dict[frozenset, list] = {}
    for i, op in enumerate(fn.ops):
        if op.kind == "qalloc":
            parity[op.results[0]] = (frozenset(), 0)
        if op.kind != "gate":
            continue
        ins = [parity.pop(v) for v in op.operands]
        nc = op.num_controls
        if op.condition is not None:
            outs = [var() for _ in ins]
        elif op.gate in PHASE or op.gate is P:
            outs = ins
            if not nc:
                angle = op.param if op.gate is P else PHASE[op.gate]
                key, const = ins[0]
                term = terms.get(key)
                if term is None:
                    term = terms[key] = [0.0, [], const]
                term[0] += -angle if const else angle
                term[1].append(i)
        elif op.gate is X and not nc:
            outs = [(ins[0][0], ins[0][1] ^ 1)]
        elif op.gate is X and nc == 1:
            (cv, cc), (tv, tc) = ins
            outs = [ins[0], (tv ^ cv, tc ^ cc)]
        elif op.gate is SWAP and not nc:
            outs = ins[::-1]
        else:
            outs = ins[:nc] + [var() for _ in ins[nc:]]
        for r, p in zip(op.results, outs):
            parity[r] = p

    emit: dict[int, tuple] = {}
    for key, (angle, indices, const) in terms.items():
        if not key:
            emit.update((i, ()) for i in indices)
        elif len(indices) > 1:
            gates = _phase_gates(-angle if const else angle)
            if gates != tuple((fn.ops[i].gate, fn.ops[i].param)
                              for i in indices):
                emit[indices[0]] = gates
                emit.update((i, ()) for i in indices[1:])
    if not emit:
        return
    # Rebuild the ops, forwarding each deleted gate's operand to its result's
    # one consumer.
    rename: dict[int, int] = {}
    ops = []
    for i, op in enumerate(fn.ops):
        if rename:
            op.operands = tuple([rename.pop(v, v) for v in op.operands])
        if i not in emit:
            ops.append(op)
            continue
        (v,), (r,) = op.operands, op.results
        gates = emit[i]
        if not gates:
            rename[r] = v
        for n, (kind, param) in enumerate(gates, 1):
            out = r if n == len(gates) else fn.new_id()
            ops.append(QOp("gate", (v,), (out,), gate=kind, param=param))
            v = out
    fn.ops = ops


# ---------------------------------------------------------------------------
# Multi-controlled gate decomposition


def ccx_gates(a: int, b: int, t: int) -> list[Gate]:
    """The exact Toffoli, 7 T."""
    return [
        g(H, t),
        g(X, t, controls=(b,)), g(TDG, t),
        g(X, t, controls=(a,)), g(T, t),
        g(X, t, controls=(b,)), g(TDG, t),
        g(X, t, controls=(a,)), g(T, t),
        g(T, b), g(H, t),
        g(X, b, controls=(a,)), g(T, a), g(TDG, b),
        g(X, b, controls=(a,)),
    ]


def ccz_gates(a: int, b: int, t: int) -> list[Gate]:
    """The exact CCZ: ``ccx_gates`` without its two H gates on the target."""
    return [gt for gt in ccx_gates(a, b, t) if gt.kind is not H]


def rccx_gates(a: int, b: int, t: int) -> list[Gate]:
    """A relative-phase Toffoli with four T gates (Maslov, PRA 93, 022311,
    2016).

    It is CCX times a phase of -i on ``a = b = 1``, a diagonal on the two
    controls alone, so ``rccx · M · rccx†`` is the exact Toffoli pair
    whenever M leaves both controls unchanged.
    """
    return [
        g(H, t),
        g(T, t),
        g(X, t, controls=(a,)), g(TDG, t),
        g(X, t, controls=(b,)), g(T, t),
        g(X, t, controls=(a,)), g(TDG, t),
        g(X, t, controls=(b,)),
        g(H, t),
    ]


def _is_z_phase(op: QOp) -> bool:
    """P(+-pi), which is Z."""
    return op.gate is P and math.isclose(
        abs(math.remainder(op.param, 2 * math.pi)), math.pi, abs_tol=1e-12)


def decompose_multicontrol(m: QCircModule) -> QCircModule:
    """Rewrite every gate with two or more controls into <=1-control gates.

    A gate with ``k`` controls becomes a ladder, one exact core and the
    mirrored ladder (Selinger, PRA 87, 042302, 2013). The ladder ANDs
    controls into fresh ancillas with ``rccx_gates``; each rung's relative
    phase sits on its controls, which neither later rungs nor the core
    change, so its mirror cancels it exactly. C^kX ANDs its first ``k - 1``
    controls into ``k - 2`` ancillas, and its core is ``ccx_gates`` on that
    AND and the last control; C^kZ and C^kP(+-pi) use ``ccz_gates`` and C^kY
    Sdg.ccx.S there. Any other C^kU ANDs all ``k`` controls into ``k - 1``
    ancillas and controls U on the last. A Toffoli flagged as the compute
    (uncompute) half of a mirrored pair becomes one ``rccx_gates`` (its
    adjoint).
    """
    for fn in m.functions.values():
        old_ops, fn.ops = fn.ops, []
        rename: dict[int, int] = {}

        def resolve(v: int) -> int:
            while v in rename:
                v = rename[v]
            return v

        for op in old_ops:
            op.operands = tuple(resolve(v) for v in op.operands)
            if op.condition is not None:
                op.condition = (resolve(op.condition[0]), op.condition[1])
            if op.kind != "gate" or op.num_controls < 2:
                fn.ops.append(op)
                continue
            k, n_vals = op.num_controls, len(op.operands)
            # An exact core takes the last control itself; any other U is
            # controlled on the AND of all k. Rung i ANDs control i into
            # ancilla position n_vals + i - 1; ``a`` holds the AND so far.
            exact = op.gate in (X, Z, Y) or _is_z_phase(op)
            anded = k - 1 if exact else k
            ladder, a = [], 0
            for c, anc in enumerate(range(n_vals, n_vals + anded - 1), 1):
                ladder += rccx_gates(a, c, anc)
                a = anc
            if op.gate is X and op.pair and k == 2:
                core = rccx_gates(a, k - 1, k)
                if op.pair < 0:
                    core = adjoint_gates(core)
            elif op.gate is X:
                core = ccx_gates(a, k - 1, k)
            elif op.gate is Y:
                core = [g(SDG, k)] + ccx_gates(a, k - 1, k) + [g(S, k)]
            elif exact:
                core = ccz_gates(a, k - 1, k)
            else:
                core = [Gate(op.gate, tuple(range(k, n_vals)), (a,), op.param)]
            gates = ladder + core + adjoint_gates(ladder)
            wires = list(op.operands)
            for _ in range(anded - 1):
                anc = fn.new_id()
                fn.ops.append(QOp("qalloc", results=(anc,)))
                wires.append(anc)
            append_gates(fn, wires, gates, op.condition)
            for pos in range(n_vals, len(wires)):
                fn.ops.append(QOp("qfreez", (wires[pos],)))
            for old, new in zip(op.results, wires[:n_vals]):
                rename[old] = new
    return m
