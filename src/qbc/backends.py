"""
Text backends: OpenQASM 3 and Base-Profile QIR emission from a lowered,
decomposed gate module, plus a reader for the emitted OpenQASM subset used
to round-trip register allocation.

Both emitters are deterministic: identical modules produce byte-identical
text. Register indices are assigned in allocation order; with
``reuse_qubits``, an index freed by a ``qfreez`` (a qubit known to be |0>)
is reused, and a measured or ``qfree``d one never is. A qubit value's
register is that of the ``qalloc`` its wire began at, read from
``qcirc.wire_starts``.

The gate vocabulary lives in ``qcirc``: OpenQASM names are ``GateKind``
values (with a ``c`` prefix or ``cp(qcirc.PHASE)`` for one control and
``ctrl(k) @`` beyond), the reader inverts that naming, and the QIR writer
maps each (kind, controls) pair it can call to one intrinsic.
"""

from __future__ import annotations

from collections import deque

from .qcirc import (
    N_TARGETS, PHASE, Gate, GateKind, QCircFn, QCircModule, QOp, append_gates,
    g, wire_starts,
)


X, Y, Z, H, S, SDG, T, TDG, P, SWAP = (
    GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.SDG,
    GateKind.T, GateKind.TDG, GateKind.P, GateKind.SWAP,
)


class BackendError(Exception):
    pass


def _allocate(fn: QCircFn, reuse: bool):
    """Register indices of every qubit value, the register count, and the
    slot of every measured bit.

    Each ``qalloc`` takes the next fresh index or, with ``reuse``, the index
    freed longest ago by a ``qfreez``, whose qubit is known to be |0>. A
    measured or ``qfree``d qubit is left in an unknown state, and Base-Profile
    QIR forbids using a qubit after it is measured, so its index is never
    reused. Every other qubit value has the index of the ``qalloc`` its wire
    began at (``wire_starts``).
    """
    start = wire_starts(fn)
    reg: dict[int, int] = {}  # qalloc result -> register index
    free: deque[int] = deque()
    total = 0
    creg: dict[int, int] = {}
    for op in fn.ops:
        if op.kind == "qalloc":
            if reuse and free:
                reg[op.results[0]] = free.popleft()
            else:
                reg[op.results[0]] = total
                total += 1
        elif op.kind == "qfreez":
            free.append(reg[start[op.operands[0]]])
        elif op.kind == "measure":
            creg[op.results[0]] = len(creg)
    index_of = {v: reg[s] for v, s in start.items()}
    return index_of, total, creg


# The kinds stdgates.inc has a one-control gate for, named with a "c".
_C_PREFIXED = (X, Y, Z, H, SWAP)


def emit_qasm3(m: QCircModule, reuse_qubits: bool = False,
               allow_multi_control: bool = False) -> str:
    fn = m.entry_fn
    if fn.qubit_params:
        raise BackendError("cannot emit a function that takes qubits")
    index_of, total, creg = _allocate(fn, reuse_qubits)
    n = max(total, 1)
    k = len(creg)
    lines = ['OPENQASM 3.0;', 'include "stdgates.inc";', f"qubit[{n}] q;"]
    if k:
        lines.append(f"bit[{k}] c;")
    for op in fn.ops:
        if op.kind == "gate":
            stmt = _qasm_gate(op, index_of, allow_multi_control)
            if op.condition is not None:
                bit, want = op.condition
                stmt = f"if (c[{creg[bit]}] == {int(want)}) {{ {stmt} }}"
            lines.append(stmt)
        elif op.kind == "measure":
            qi = index_of[op.operands[0]]
            lines.append(f"measure q[{qi}] -> c[{creg[op.results[0]]}];")
        elif op.kind in ("qalloc", "qfree", "qfreez", "ret"):
            continue
        else:
            raise BackendError(f"cannot emit op {op.kind}")
    return "\n".join(lines) + "\n"


def _qasm_gate(op: QOp, index_of: dict[int, int], allow_multi: bool) -> str:
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
    if not allow_multi:
        raise BackendError(
            "gate with multiple controls survived; run multi-control "
            "decomposition or pass the flag that permits ctrl @"
        )
    return f"ctrl({nctrl}) @ {name} {args};"


# ---------------------------------------------------------------------------
# OpenQASM subset reader (round-trips what emit_qasm3 produces)


# Gate name -> (kind, controls): the inverse of ``_qasm_gate``'s naming, and
# stdgates.inc's Toffoli.
_QASM_GATES = (
    {kind.value: (kind, 0) for kind in GateKind}
    | {"c" + kind.value: (kind, 1) for kind in _C_PREFIXED}
    | {"cp": (P, 1), "ccx": (X, 2)}
)


def read_qasm3(text: str) -> QCircModule:
    import re

    fn = QCircFn("main")
    wires: dict[int, int] = {}  # live register index -> its current value
    measured: set[int] = set()
    last_use: dict[int, int] = {}  # register index -> fn.ops index of its last gate
    cbits: dict[int, int] = {}
    n_qubits = 0

    def wire(i: int) -> int:
        """The index's current value, allocated just before its first use."""
        if i not in wires:
            if i >= n_qubits or i in measured:
                raise BackendError(f"unallocated qubit q[{i}]")
            wires[i] = fn.new_id()
            fn.ops.append(QOp("qalloc", results=(wires[i],)))
        return wires[i]

    def q_indices(args: str) -> list[int]:
        return [int(x) for x in re.findall(r"q\[(\d+)\]", args)]

    gate_re = re.compile(
        r"(?:ctrl\((\d+)\) @ )?(\w+)(?:\(([^)]*)\))? ((?:q\[\d+\](?:, )?)+);"
    )

    def run_stmt(stmt: str, cond) -> None:
        nonlocal n_qubits
        stmt = stmt.strip()
        if not stmt:
            return
        mt = re.match(r"qubit\[(\d+)\] q;", stmt)
        if mt:
            n_qubits = int(mt.group(1))
            return
        if re.match(r"bit\[\d+\] c;", stmt) or stmt.startswith("OPENQASM") \
                or stmt.startswith("include"):
            return
        mt = re.match(r"measure q\[(\d+)\] -> c\[(\d+)\];", stmt)
        if mt:
            b = fn.new_id()
            fn.ops.append(QOp("measure", (wire(int(mt.group(1))),), (b,)))
            cbits[int(mt.group(2))] = b
            wires.pop(int(mt.group(1)))
            measured.add(int(mt.group(1)))
            return
        mt = re.match(r"if \(c\[(\d+)\] == (\d)\) \{ (.*) \}", stmt)
        if mt:
            bit = cbits.get(int(mt.group(1)))
            if bit is None:
                raise BackendError(f"condition on an unmeasured bit: {stmt}")
            run_stmt(mt.group(3), (bit, bool(int(mt.group(2)))))
            return
        mt = gate_re.match(stmt)
        if not mt:
            raise BackendError(f"cannot parse: {stmt}")
        nctrl_mod, name, param_s, args = mt.groups()
        idxs = q_indices(args)
        if name not in _QASM_GATES:
            raise BackendError(f"unknown gate {name}")
        kind, nctrl = _QASM_GATES[name]
        # P takes exactly one angle and every other kind none.
        if (param_s is not None) != (kind is GateKind.P) or param_s == "":
            raise BackendError(f"bad parameter list: {stmt}")
        try:
            param = float(param_s) if param_s else 0.0
        except ValueError:  # the emitter writes angles as float reprs
            raise BackendError(f"angle is not a number: {stmt}") from None
        if nctrl_mod is not None:
            nctrl = int(nctrl_mod)
        if len(idxs) != nctrl + N_TARGETS[kind] or len(set(idxs)) != len(idxs):
            raise BackendError(f"bad qubit operands: {stmt}")
        # Allocate every operand before the gate takes its result ids.
        vals = [wire(i) for i in idxs]
        positions = tuple(range(len(idxs)))
        gate = Gate(kind, positions[nctrl:], positions[:nctrl], param)
        append_gates(fn, vals, [gate], cond)
        for i, v in zip(idxs, vals):
            wires[i] = v
            last_use[i] = len(fn.ops) - 1

    for raw in text.splitlines():
        run_stmt(raw, None)
    # Free each index still live just after its last gate, so the circuit
    # holds no more live qubits than the one the text was emitted from.
    frees: dict[int, list[int]] = {}
    for i in sorted(wires):
        frees.setdefault(last_use[i], []).append(wires[i])
    ops, fn.ops = fn.ops, []
    for k, op in enumerate(ops):
        fn.ops.append(op)
        fn.ops.extend(QOp("qfree", (v,)) for v in frees.get(k, ()))
    fn.ops.append(QOp("ret", tuple(cbits[i] for i in sorted(cbits))))
    return QCircModule({"main": fn}, "main")


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
    each have an intrinsic in ``_QIR_INTRINSICS``."""
    kind, nctrl = op.gate, op.num_controls
    qs = tuple(range(len(op.operands)))
    ctrls, tgts = qs[:nctrl], qs[nctrl:]
    if (kind, nctrl) in _QIR_INTRINSICS:
        return [Gate(kind, tgts, ctrls, op.param)]
    if nctrl == 0:  # SWAP
        a, b = tgts
        return [g(X, b, controls=(a,)), g(X, a, controls=(b,)),
                g(X, b, controls=(a,))]
    if nctrl > 1:
        raise BackendError(
            "multi-controlled gate survived; run decomposition before the "
            "QIR backend"
        )
    (c,) = ctrls
    if kind is SWAP:
        a, b = tgts
        return [g(X, a, controls=(b,)), g(X, b, controls=(c, a)),
                g(X, a, controls=(b,))]
    (t,) = tgts
    if kind is Y:
        return [g(SDG, t), g(X, t, controls=(c,)), g(S, t)]
    if kind is H:
        return [g(S, t), g(H, t), g(T, t), g(X, t, controls=(c,)), g(TDG, t),
                g(H, t), g(SDG, t)]
    theta = PHASE.get(kind, op.param)
    return [g(P, c, param=theta / 2), g(X, t, controls=(c,)),
            g(P, t, param=-theta / 2), g(X, t, controls=(c,)),
            g(P, t, param=theta / 2)]


def emit_qir_base(m: QCircModule, reuse_qubits: bool = False) -> str:
    fn = m.entry_fn
    if fn.qubit_params:
        raise BackendError("cannot emit a function that takes qubits")
    for op in fn.ops:
        if op.kind == "gate" and op.condition is not None:
            raise BackendError(
                "Base-Profile QIR cannot branch on measurement results; "
                "use the OpenQASM backend"
            )
    index_of, total, creg = _allocate(fn, reuse_qubits)
    n = max(total, 1)
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
