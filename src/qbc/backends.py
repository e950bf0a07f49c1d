"""
Text backends: OpenQASM 3 and Base-Profile QIR emission from the entry of
a lowered gate module, which takes no qubits and holds only the op kinds
``qcirc.verify_circuit`` knows. Base-Profile QIR reports the two programs
it cannot express: a gate conditioned on a measurement, and a
multi-controlled gate with no intrinsic, which only ``--no-decompose``
leaves.

Both emitters are deterministic: identical modules produce byte-identical
text. One allocator, ``allocate``, places qubits for both. Without
``reuse_qubits`` every ``qalloc`` takes a fresh register. With it (the
pipeline's default at -O1), a ``qalloc`` takes the register freed by a
``qfreez`` (a qubit known to be |0>) whose last gate sits lowest in QASM
depth, so the register is no wider than the peak number of live qubits and
reuse costs no depth on the benchmark programs. A measured or ``qfree``d
register is never reused. A gate's results keep its operands' registers.

The gate vocabulary lives in ``qcirc``: OpenQASM names are ``GateKind``
values (with a ``c`` prefix or ``cp(qcirc.PHASE)`` for one control and
``ctrl(k) @`` beyond, which only an undecomposed circuit has). The QIR
writer keeps one table, ``_QIR_INTRINSICS``, mapping each (kind, controls)
pair it can call to one intrinsic; it writes any other gate with at most
one control as its ``qcirc.exact_form``, and rejects the rest.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .diagnostics import CompileError
from .qcirc import (
    PHASE, Gate, H, P, QCircFn, QCircModule, QOp, S, SDG, SWAP, T, TDG, X, Y,
    Z, exact_form,
)


class Registers(NamedTuple):
    """Where ``allocate`` puts a function's qubits and measured bits."""

    index_of: dict[int, int]  # qubit value -> register index
    width: int  # the register count the backends declare, at least 1
    creg: dict[int, int]  # measured bit -> its slot
    depth: int  # the longest chain of gates along any register


def allocate(fn: QCircFn, reuse: bool) -> Registers:
    """Register indices of every qubit value, in one walk over ``fn``.

    Each ``qalloc`` takes a fresh index or, with ``reuse``, the register
    freed by a ``qfreez`` (its qubit is known to be |0>) whose last gate has
    the lowest level, ties going to the lowest index; a fresh index only
    when none is free. A gate's level is one more than the highest among its
    registers', as in QASM depth, to which a measurement or a condition adds
    nothing: the register that went idle earliest delays the new qubit's
    first gate least. A measured or ``qfree``d qubit is in an unknown state,
    and Base-Profile QIR forbids using a qubit after it is measured, so its
    register is never reused.
    """
    index_of: dict[int, int] = {}
    level: list[int] = []  # register -> level of its last gate
    free: list[tuple[int, int]] = []  # min-heap of (level, zeroed register)
    creg: dict[int, int] = {}
    for op in fn.ops:
        kind = op.kind
        if kind == "gate":
            operands = op.operands
            if len(operands) == 1:  # most gates; no max to take
                r = index_of[operands[0]]
                level[r] += 1
                index_of[op.results[0]] = r
                continue
            regs = [index_of[v] for v in operands]
            d = 1 + max([level[r] for r in regs])
            for r, v in zip(regs, op.results):
                index_of[v] = r
                level[r] = d
        elif kind == "qalloc":
            if reuse and free:
                index_of[op.results[0]] = heapq.heappop(free)[1]
            else:
                index_of[op.results[0]] = len(level)
                level.append(0)
        elif kind == "qfreez":
            r = index_of[op.operands[0]]
            heapq.heappush(free, (level[r], r))
        elif kind == "measure":
            creg[op.results[0]] = len(creg)
    return Registers(index_of, max(len(level), 1), creg, max(level, default=0))


# The kinds stdgates.inc has a one-control gate for, named with a "c".
_C_PREFIXED = (X, Y, Z, H, SWAP)


def emit_qasm3(m: QCircModule, reuse_qubits: bool = False) -> str:
    fn = m.entry_fn
    index_of, n, creg, _ = allocate(fn, reuse_qubits)
    k = len(creg)
    lines = ['OPENQASM 3.0;', 'include "stdgates.inc";', f"qubit[{n}] q;"]
    if k:
        lines.append(f"bit[{k}] c;")
    for op in fn.ops:
        if op.kind == "gate":
            stmt = _qasm_gate(op, index_of)
            if op.condition is not None:
                bit, want = op.condition
                stmt = f"if (c[{creg[bit]}] == {int(want)}) {{ {stmt} }}"
            lines.append(stmt)
        elif op.kind == "measure":
            qi = index_of[op.operands[0]]
            lines.append(f"measure q[{qi}] -> c[{creg[op.results[0]]}];")
    return "\n".join(lines) + "\n"


def _qasm_gate(op: QOp, index_of: dict[int, int]) -> str:
    args = ", ".join(f"q[{index_of[v]}]" for v in op.operands)
    kind, nctrl = op.gate, op.num_controls
    name = kind.value
    if kind is P:
        name += f"({op.param!r})"
    if nctrl == 0:
        return f"{name} {args};"
    if nctrl == 1:
        if kind in _C_PREFIXED:
            return f"c{name} {args};"
        return f"cp({PHASE.get(kind, op.param)!r}) {args};"
    return f"ctrl({nctrl}) @ {name} {args};"


# ---------------------------------------------------------------------------
# Base-Profile QIR


# (kind, controls) -> the Base-Profile intrinsic it calls, after
# ``__quantum__qis__``. P is rz, equal up to a global phase.
_QIR_INTRINSICS = {
    (X, 0): "x__body", (Y, 0): "y__body", (Z, 0): "z__body",
    (H, 0): "h__body", (S, 0): "s__body", (SDG, 0): "s__adj",
    (T, 0): "t__body", (TDG, 0): "t__adj", (P, 0): "rz__body",
    (X, 1): "cnot__body", (Z, 1): "cz__body", (X, 2): "ccx__body",
}


def _legalize_for_qir(op: QOp) -> list[Gate]:
    """The gate as gates over its operand positions (controls first) that
    each have an intrinsic in ``_QIR_INTRINSICS``: itself, or its
    ``qcirc.exact_form``."""
    kind, nctrl = op.gate, op.num_controls
    qs = tuple(range(len(op.operands)))
    ctrls, tgts = qs[:nctrl], qs[nctrl:]
    if (kind, nctrl) in _QIR_INTRINSICS:
        return [Gate(kind, tgts, ctrls, op.param)]
    if nctrl > 1:
        raise CompileError(
            "multi-controlled gate survived; run decomposition before the "
            "QIR backend"
        )
    return exact_form(kind, ctrls, tgts, op.param)


def emit_qir_base(m: QCircModule, reuse_qubits: bool = False) -> str:
    fn = m.entry_fn
    for op in fn.ops:
        if op.kind == "gate" and op.condition is not None:
            raise CompileError(
                "Base-Profile QIR cannot branch on measurement results; "
                "use the OpenQASM backend"
            )
    index_of, n, creg, _ = allocate(fn, reuse_qubits)
    k = len(creg)

    def qref(i: int) -> str:
        if i == 0:
            return "%Qubit* null"
        return f"%Qubit* inttoptr (i64 {i} to %Qubit*)"

    def rref(i: int) -> str:
        if i == 0:
            return "%Result* null"
        return f"%Result* inttoptr (i64 {i} to %Result*)"

    body: list[str] = []
    used: set[str] = set()
    for op in fn.ops:
        if op.kind == "gate":
            idxs = [index_of[v] for v in op.operands]
            for gt in _legalize_for_qir(op):
                name = _QIR_INTRINSICS[gt.kind, len(gt.controls)]
                qubits = [idxs[p] for p in gt.controls + gt.targets]
                sig = ["%Qubit*"] * len(qubits)
                call_args = [qref(i) for i in qubits]
                if gt.kind is P:
                    sig.insert(0, "double")
                    call_args.insert(0, f"double {gt.param!r}")
                used.add(f"declare void @__quantum__qis__{name}"
                         f"({', '.join(sig)})")
                body.append(f"  call void @__quantum__qis__{name}"
                            f"({', '.join(call_args)})")
        elif op.kind == "measure":
            qi = index_of[op.operands[0]]
            ri = creg[op.results[0]]
            used.add("declare void @__quantum__qis__mz__body(%Qubit*, %Result*)")
            body.append(
                f"  call void @__quantum__qis__mz__body({qref(qi)}, {rref(ri)})"
            )
    used.add("declare void @__quantum__rt__result_record_output(%Result*, i8*)")
    record = [
        f"  call void @__quantum__rt__result_record_output({rref(i)}, i8* null)"
        for i in range(k)
    ]
    lines = [
        "; ModuleID = 'qbc'",
        "%Qubit = type opaque",
        "%Result = type opaque",
        "",
        "define void @main() #0 {",
        "entry:",
        *body,
        *record,
        "  ret void",
        "}",
        "",
        *sorted(used),
        "",
        'attributes #0 = { "entry_point" "output_labeling_schema"="" '
        f'"qir_profiles"="base_profile" "required_num_qubits"="{n}" '
        f'"required_num_results"="{k}" }}',
    ]
    return "\n".join(lines) + "\n"
