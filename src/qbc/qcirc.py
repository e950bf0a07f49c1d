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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence


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


@dataclass(frozen=True)
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
# Dataflow module


@dataclass
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


@dataclass
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


@dataclass
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
        positions = list(gt.controls) + list(gt.targets)
        operands = tuple(wires[p] for p in positions)
        results = tuple(fn.new_id() for _ in positions)
        fn.ops.append(
            QOp(
                "gate",
                operands,
                results,
                gate=gt.kind,
                param=gt.param,
                num_controls=len(gt.controls),
                condition=condition,
                pair=gt.pair,
            )
        )
        for p, r in zip(positions, results):
            wires[p] = r


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
