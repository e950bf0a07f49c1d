"""
Gate-level dataflow IR: qubit alloc/free, measurement, and controlled gates
with value semantics (every qubit value is produced once and consumed once).

Synthesis routines build flat ``Gate`` lists over register positions.
``append_gates`` is the one place that wires such lists into dataflow
``gate`` ops: gate lowering, multi-control decomposition and the QASM reader
all go through it. ``wire_starts`` follows them back: it names the qubit
behind every value by the value its wire began at, and the executor and
the test oracles read that map instead of tracking wires themselves. Two
walks keep their own tracking: ``verify_circuit``, since it must stay
correct on malformed input, and ``backends.allocate``, which gives a gate's
results its operands' registers in the walk that also places each
allocation and tracks depth.

This module is also the one home of the gate vocabulary: a ``GateKind``'s
value is its OpenQASM name, ``N_TARGETS`` its target count,
``ADJOINT_KIND`` its inverse and ``PHASE`` the phase a diagonal kind puts
on |1>. The peephole pass and both backends read these tables rather than
keeping their own.

It is the one home of gate identities and of gate replacement too.
``exact_form`` is the table of exact Clifford+T forms: phase folding emits
its merged phases through it, multi-control decomposition takes its cores
from it, and the QIR backend legalizes every gate it has no intrinsic for
with it. ``substitute`` is the one walk that replaces ops by gate lists:
folding and decomposition both hand it their rewrites.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional, Sequence

from .record import field, record


class GateKind(Enum):
    """A gate kind; its value is the kind's OpenQASM 3 (stdgates.inc) name."""

    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    P = "p"
    SWAP = "swap"


X, Y, Z, H, S, SDG, T, TDG, P, SWAP = GateKind

ADJOINT_KIND = {
    GateKind.X: GateKind.X,
    GateKind.Y: GateKind.Y,
    GateKind.Z: GateKind.Z,
    GateKind.H: GateKind.H,
    GateKind.SWAP: GateKind.SWAP,
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
    GateKind.P: GateKind.P,  # with negated param
}

# The phase each diagonal kind puts on |1>; P carries its own in ``param``.
PHASE = {
    GateKind.Z: math.pi,
    GateKind.S: math.pi / 2,
    GateKind.SDG: -math.pi / 2,
    GateKind.T: math.pi / 4,
    GateKind.TDG: -math.pi / 4,
}

N_TARGETS = {k: (2 if k is GateKind.SWAP else 1) for k in GateKind}


@record(frozen=True)
class Gate:
    """A gate over register positions (synthesis-level, not dataflow).

    ``pair`` marks a Toffoli that a classical embed computes (+1) and later
    uncomputes with its exact mirror (-1), with nothing between the two that
    changes its controls. Such a pair may be decomposed into relative-phase
    Toffolis, each CCX times a diagonal D on its two controls: the pair is
    then CCX·D·M·D†·CCX, which equals the exact CCX·M·CCX whenever the middle
    M commutes with D, that is, leaves both controls' values unchanged
    (diagonal gates on them, or using them only as controls). An unflagged
    gate (0) is always exact.
    """

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    param: float = 0.0
    pair: int = 0

    def __post_init__(self):
        assert len(self.targets) == N_TARGETS[self.kind]
        occupied = set(self.targets) | set(self.controls)
        assert len(occupied) == len(self.targets) + len(self.controls)

    def adjoint(self) -> "Gate":
        param = -self.param if self.kind is GateKind.P else self.param
        return Gate(ADJOINT_KIND[self.kind], self.targets, self.controls,
                    param, -self.pair)

    def shifted(self, offset: int) -> "Gate":
        return Gate(
            self.kind,
            tuple(t + offset for t in self.targets),
            tuple(c + offset for c in self.controls),
            self.param,
            self.pair,
        )

    def with_controls(self, extra: tuple[int, ...]) -> "Gate":
        """The gate with more controls; an extra control drops ``pair``,
        since a controlled half no longer mirrors its partner. A predicated
        embed keeps its ANDs' pairs by controlling only the gates between
        them (``synth.embed_gates``)."""
        return Gate(self.kind, self.targets, self.controls + extra, self.param)


def g(kind: GateKind, *targets: int, controls: tuple[int, ...] = (), param: float = 0.0) -> Gate:
    return Gate(kind, tuple(targets), tuple(controls), param)


def adjoint_gates(gates: list[Gate]) -> list[Gate]:
    return [gt.adjoint() for gt in reversed(gates)]


# ---------------------------------------------------------------------------
# Exact gate forms

# The fewest of t, tdg, s, sdg and z that make P(k * pi/4), for k = 0..7.
_EIGHTHS = ((), (T,), (S,), (S, T), (Z,), (Z, T), (SDG,), (TDG,))


def exact_form(kind: GateKind, controls: tuple[int, ...],
               targets: tuple[int, ...],
               param: float = 0.0) -> Optional[list[Gate]]:
    """One exact rewrite step of a gate over positions, or None.

    - P(k * pi/4) with no control: at most two of t, s, z, sdg and tdg
      (none for 0);
    - SWAP: 3 CX, the first on the second target;
    - one control: CSWAP is CX.CCX.CX (the CX on the first target), CY
      Sdg.CX.S, CH S.H.T.CX.T+.H.S+, and a diagonal (Z, S, T, their
      adjoints, P) 3 P and 2 CX;
    - two controls: CCX is the 7-T Toffoli; CCZ and CCP(+-pi) are the same
      without its two H gates on the target, and CCY is Sdg.CCX.S.

    Each entry equals its gate exactly, with no global phase (the
    controlled-gate identities of Barenco et al., PRA 52, 3457, 1995).
    A step may leave gates that have a form of their own (CSWAP's and
    CCY's CCX); each user expands until it reaches its own gate set.
    """
    if not controls:
        if kind is SWAP:
            a, b = targets
            return [g(X, b, controls=(a,)), g(X, a, controls=(b,)),
                    g(X, b, controls=(a,))]
        if kind is P:
            theta = math.remainder(param, 2 * math.pi)
            k = round(theta / (math.pi / 4))
            if abs(theta - k * math.pi / 4) <= 1e-12:
                return [g(eighth, *targets) for eighth in _EIGHTHS[k % 8]]
        return None
    if len(controls) == 1:
        (c,) = controls
        if kind is SWAP:
            a, b = targets
            return [g(X, a, controls=(b,)), g(X, b, controls=(c, a)),
                    g(X, a, controls=(b,))]
        (t,) = targets
        if kind is Y:
            return [g(SDG, t), g(X, t, controls=(c,)), g(S, t)]
        if kind is H:
            return [g(S, t), g(H, t), g(T, t), g(X, t, controls=(c,)),
                    g(TDG, t), g(H, t), g(SDG, t)]
        if kind is P or kind in PHASE:
            theta = PHASE.get(kind, param)
            return [g(P, c, param=theta / 2), g(X, t, controls=(c,)),
                    g(P, t, param=-theta / 2), g(X, t, controls=(c,)),
                    g(P, t, param=theta / 2)]
        return None
    if len(controls) == 2 and kind is not SWAP:
        a, b = controls
        (t,) = targets
        if kind is Y:
            return [g(SDG, t), g(X, t, controls=(a, b)), g(S, t)]
        toffoli = [  # 7 T
            g(H, t),
            g(X, t, controls=(b,)), g(TDG, t),
            g(X, t, controls=(a,)), g(T, t),
            g(X, t, controls=(b,)), g(TDG, t),
            g(X, t, controls=(a,)), g(T, t),
            g(T, b), g(H, t),
            g(X, b, controls=(a,)), g(T, a), g(TDG, b),
            g(X, b, controls=(a,)),
        ]
        if kind is X:
            return toffoli
        if kind is Z or kind is P and math.isclose(
                abs(math.remainder(param, 2 * math.pi)), math.pi,
                abs_tol=1e-12):
            return [gt for gt in toffoli if gt.kind is not H]
    return None


# ---------------------------------------------------------------------------
# Dataflow module


@record
class QOp:
    """One op in a single-block gate-level function body.

    kinds and shapes:
      qalloc:            ()                     -> (qubit,)
      qfree/qfreez:      (qubit,)               -> ()
      measure:           (qubit,)               -> (bit,)
      gate:              (*controls, *targets)  -> same count of qubits
      ret:               (*bits,)               -> ()
    Gates may carry a classical condition (bit value id, expected outcome)
    and the ``pair`` flag of the ``Gate`` they were built from.
    """

    kind: str
    operands: tuple[int, ...] = ()
    results: tuple[int, ...] = ()
    gate: Optional[GateKind] = None
    param: float = 0.0
    num_controls: int = 0
    condition: Optional[tuple[int, bool]] = None
    pair: int = 0


@record
class QCircFn:
    name: str
    ops: list[QOp] = field(default_factory=list)
    qubit_params: tuple[int, ...] = ()
    next_id: int = 0

    def new_id(self) -> int:
        v = self.next_id
        self.next_id += 1
        return v

    def count_gates(self) -> int:
        return sum(1 for op in self.ops if op.kind == "gate")


@record
class QCircModule:
    functions: dict[str, QCircFn] = field(default_factory=dict)
    entry: str = "main"

    @property
    def entry_fn(self) -> QCircFn:
        return self.functions[self.entry]


class CircuitError(Exception):
    pass


def verify_circuit(m: QCircModule) -> None:
    """Check dataflow invariants; raise CircuitError on the first violation."""
    for fn in m.functions.values():
        _verify_fn(fn)


def _verify_fn(fn: QCircFn) -> None:
    defined: set[int] = set(fn.qubit_params)
    qubit_vals: set[int] = set(fn.qubit_params)
    bit_vals: set[int] = set()
    consumed: set[int] = set()
    root: dict[int, int] = {p: p for p in fn.qubit_params}
    allocated: set[int] = set()

    def use_qubit(v: int, i: int, op: QOp) -> None:
        if v not in qubit_vals:
            raise CircuitError(f"{fn.name}: {_at(i, op)} uses undefined qubit %{v}")
        if v in consumed:
            raise CircuitError(f"{fn.name}: qubit %{v} used twice ({_at(i, op)})")
        consumed.add(v)

    for i, op in enumerate(fn.ops):
        if op.kind == "qalloc":
            (res,) = op.results
            if res in defined:
                raise CircuitError(f"{fn.name}: %{res} redefined")
            defined.add(res)
            qubit_vals.add(res)
            root[res] = res
            allocated.add(res)
        elif op.kind in ("qfree", "qfreez"):
            use_qubit(op.operands[0], i, op)
        elif op.kind == "measure":
            use_qubit(op.operands[0], i, op)
            (res,) = op.results
            defined.add(res)
            bit_vals.add(res)
        elif op.kind == "gate":
            if len(op.operands) != len(op.results):
                raise CircuitError(f"{fn.name}: {_at(i, op)} operand/result mismatch")
            seen = set()
            for v in op.operands:
                if v in seen:
                    raise CircuitError(
                        f"{fn.name}: {_at(i, op)} repeats qubit %{v} in one gate"
                    )
                seen.add(v)
                use_qubit(v, i, op)
            ntgt = len(op.operands) - op.num_controls
            if ntgt != N_TARGETS[op.gate]:
                raise CircuitError(f"{fn.name}: {_at(i, op)} wrong target count")
            if op.condition is not None and op.condition[0] not in bit_vals:
                raise CircuitError(f"{fn.name}: {_at(i, op)} conditions on non-bit")
            for v, res in zip(op.operands, op.results):
                if res in defined:
                    raise CircuitError(f"{fn.name}: %{res} redefined")
                defined.add(res)
                qubit_vals.add(res)
                root[res] = root.get(v, v)
        elif op.kind == "ret":
            for v in op.operands:
                if v not in bit_vals:
                    raise CircuitError(f"{fn.name}: ret of non-bit %{v}")
            if i != len(fn.ops) - 1:
                raise CircuitError(f"{fn.name}: ret not last op")
        else:
            raise CircuitError(f"{fn.name}: unknown op kind {op.kind}")
    # Every allocated qubit's chain must end in qfree/qfreez/measure;
    # parameter-rooted chains may dangle (test harness functions).
    dangling = {
        v for v in qubit_vals - consumed if root.get(v, v) in allocated
    }
    if dangling:
        raise CircuitError(
            f"{fn.name}: allocated qubits never consumed: "
            + ", ".join(f"%{v}" for v in sorted(dangling))
        )


def _at(i: int, op: QOp) -> str:
    """Where op ``i`` is, for a verifier message; built only on failure."""
    return f"op {i} ({op.kind})"


def append_gates(fn: QCircFn, wires: list[int], gates: Sequence[Gate],
                 condition: Optional[tuple[int, bool]] = None) -> None:
    """Wire position-based gates into ``fn``, updating ``wires`` in place."""
    for gt in gates:
        positions = gt.controls + gt.targets
        start = fn.next_id
        fn.next_id = start + len(positions)
        results = tuple(range(start, fn.next_id))
        fn.ops.append(QOp("gate", tuple([wires[p] for p in positions]),
                          results, gt.kind, gt.param, len(gt.controls),
                          condition, gt.pair))
        for p, r in zip(positions, results):
            wires[p] = r


def substitute(fn: QCircFn, forms: dict[int, tuple[Sequence[Gate], int]]) -> None:
    """Replace each op ``i`` in ``forms`` by ``forms[i] = (gates, ancillas)``.

    The gates' positions are the op's operands, controls first, then
    ``ancillas`` fresh qubits, which are ``qalloc``'d before the gates and
    ``qfreez``'d after them (so the gates must return them to |0>). The
    gates run under the op's condition, and later operands are renamed to
    the wires the gates leave: an empty gate list forwards the operands.
    With no forms, ``fn`` is left as it is.
    """
    if not forms:
        return
    ops, fn.ops = fn.ops, []
    rename: dict[int, int] = {}
    for i, op in enumerate(ops):
        if rename:
            op.operands = tuple([rename.pop(v, v) for v in op.operands])
        if i not in forms:
            fn.ops.append(op)
            continue
        gates, ancillas = forms[i]
        wires = list(op.operands)
        for _ in range(ancillas):
            wires.append(fn.new_id())
            fn.ops.append(QOp("qalloc", results=(wires[-1],)))
        append_gates(fn, wires, gates, op.condition)
        for v in wires[len(op.operands):]:
            fn.ops.append(QOp("qfreez", (v,)))
        rename.update(zip(op.results, wires))


def wire_starts(fn: QCircFn) -> dict[int, int]:
    """Map every qubit value of ``fn`` to the value its wire began at: its
    ``qalloc`` result, or the qubit parameter it descends from through gates.

    A gate's i-th result continues the wire of its i-th operand, so two
    values share a start exactly when they are the same qubit at different
    points of the program. Expects a verified function.
    """
    start = {p: p for p in fn.qubit_params}
    for op in fn.ops:
        if op.kind == "qalloc":
            start[op.results[0]] = op.results[0]
        elif op.kind == "gate":
            for v, r in zip(op.operands, op.results):
                start[r] = start[v]
    return start


def print_qcirc(m: QCircModule) -> str:
    lines = []
    for name, fn in m.functions.items():
        args = ", ".join(f"%{v}: qubit" for v in fn.qubit_params)
        lines.append(f"qcfunc @{name}({args}) {{")
        for op in fn.ops:
            lines.append("  " + _print_qop(op))
        lines.append("}")
    return "\n".join(lines) + "\n"


def _print_qop(op: QOp) -> str:
    if op.kind == "qalloc":
        return f"%{op.results[0]} = qalloc"
    if op.kind in ("qfree", "qfreez"):
        return f"{op.kind} %{op.operands[0]}"
    if op.kind == "measure":
        return f"%{op.results[0]} = measure %{op.operands[0]}"
    if op.kind == "ret":
        return "ret " + ", ".join(f"%{v}" for v in op.operands)
    assert op.kind == "gate"
    ctrls = op.operands[: op.num_controls]
    tgts = op.operands[op.num_controls:]
    res = ", ".join(f"%{v}" for v in op.results)
    name = op.gate.value
    if op.gate is GateKind.P:
        name += f"({op.param!r})"
    s = f"{res} = gate {name}"
    if ctrls:
        s += " [" + ", ".join(f"%{v}" for v in ctrls) + "]"
    s += " (" + ", ".join(f"%{v}" for v in tgts) + ")"
    if op.condition is not None:
        bit, val = op.condition
        s += f" if %{bit} == {int(val)}"
    return s
