"""
Text backends: OpenQASM 3 and Base-Profile QIR emission from a lowered,
decomposed gate module, plus a reader for the emitted OpenQASM subset used
to round-trip register allocation.

Both emitters are deterministic: identical modules produce byte-identical
text. Register indices are assigned in allocation order; freed indices are
reused only when requested. A qubit value's register is that of the
``qalloc`` its wire began at, read from ``qcirc.wire_starts``.
"""

from __future__ import annotations

import math
from collections import deque

from .qcirc import (
    N_TARGETS, Gate, GateKind, QCircFn, QCircModule, QOp, append_gates,
    wire_starts,
)


class BackendError(Exception):
    pass


def _allocate(fn: QCircFn, reuse: bool):
    """Register indices of every qubit value, the register count, and the
    slot of every measured bit.

    Each ``qalloc`` takes the next fresh index or, with ``reuse``, the index
    freed longest ago by a ``measure``, ``qfree`` or ``qfreez``. Every other
    qubit value has the index of the ``qalloc`` its wire began at
    (``wire_starts``).
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
        elif op.kind in ("measure", "qfree", "qfreez"):
            free.append(reg[start[op.operands[0]]])
            if op.kind == "measure":
                creg[op.results[0]] = len(creg)
    index_of = {v: reg[s] for v, s in start.items()}
    return index_of, total, creg


_PLAIN = {
    GateKind.X: "x", GateKind.Y: "y", GateKind.Z: "z", GateKind.H: "h",
    GateKind.S: "s", GateKind.SDG: "sdg", GateKind.T: "t", GateKind.TDG: "tdg",
}

_CTRL1 = {
    GateKind.X: "cx", GateKind.Y: "cy", GateKind.Z: "cz", GateKind.H: "ch",
    GateKind.SWAP: "cswap",
}

_CTRL1_PHASE = {
    GateKind.S: math.pi / 2, GateKind.SDG: -math.pi / 2,
    GateKind.T: math.pi / 4, GateKind.TDG: -math.pi / 4,
}


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


def _fmt_angle(theta: float) -> str:
    return repr(theta)


def _qasm_gate(op: QOp, index_of: dict[int, int], allow_multi: bool) -> str:
    qs = [index_of[v] for v in op.operands]
    ctrls, tgts = qs[: op.num_controls], qs[op.num_controls:]
    args = ", ".join(f"q[{i}]" for i in ctrls + tgts)
    kind = op.gate
    if op.num_controls == 0:
        if kind is GateKind.P:
            return f"p({_fmt_angle(op.param)}) {args};"
        if kind is GateKind.SWAP:
            return f"swap {args};"
        return f"{_PLAIN[kind]} {args};"
    if op.num_controls == 1:
        if kind is GateKind.P:
            return f"cp({_fmt_angle(op.param)}) {args};"
        if kind in _CTRL1_PHASE:
            return f"cp({_fmt_angle(_CTRL1_PHASE[kind])}) {args};"
        return f"{_CTRL1[kind]} {args};"
    if not allow_multi:
        raise BackendError(
            "gate with multiple controls survived; run multi-control "
            "decomposition or pass the flag that permits ctrl @"
        )
    if kind is GateKind.P:
        base = f"p({_fmt_angle(op.param)})"
    elif kind in _PLAIN:
        base = _PLAIN[kind]
    else:
        base = "swap"
    return f"ctrl({op.num_controls}) @ {base} {args};"


# ---------------------------------------------------------------------------
# OpenQASM subset reader (round-trips what emit_qasm3 produces)


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
        try:
            param = float(param_s) if param_s else 0.0
        except ValueError:  # the emitter writes angles as float reprs
            raise BackendError(f"angle is not a number: {stmt}") from None
        table = {
            "x": (GateKind.X, 0), "y": (GateKind.Y, 0), "z": (GateKind.Z, 0),
            "h": (GateKind.H, 0), "s": (GateKind.S, 0), "sdg": (GateKind.SDG, 0),
            "t": (GateKind.T, 0), "tdg": (GateKind.TDG, 0),
            "p": (GateKind.P, 0), "swap": (GateKind.SWAP, 0),
            "cx": (GateKind.X, 1), "cy": (GateKind.Y, 1), "cz": (GateKind.Z, 1),
            "ch": (GateKind.H, 1), "cp": (GateKind.P, 1),
            "cswap": (GateKind.SWAP, 1), "ccx": (GateKind.X, 2),
        }
        if name not in table:
            raise BackendError(f"unknown gate {name}")
        kind, nctrl = table[name]
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


_QIR_PLAIN = {
    GateKind.X: "x", GateKind.Y: "y", GateKind.Z: "z", GateKind.H: "h",
    GateKind.S: "s", GateKind.T: "t",
}
_QIR_ADJ = {GateKind.SDG: "s", GateKind.TDG: "t"}


def _legalize_for_qir(op: QOp) -> list[tuple[GateKind, int, tuple, float]]:
    """Split a gate into (kind, nctrl, operand positions, param) pieces that
    map directly onto Base-Profile intrinsics."""
    kind, nctrl = op.gate, op.num_controls
    qs = tuple(range(len(op.operands)))
    ctrls, tgts = qs[:nctrl], qs[nctrl:]
    out: list[tuple[GateKind, int, tuple, float]] = []

    def cp(theta: float, c: int, t: int) -> None:
        out.append((GateKind.P, 0, (c,), theta / 2))
        out.append((GateKind.X, 1, (c, t), 0.0))
        out.append((GateKind.P, 0, (t,), -theta / 2))
        out.append((GateKind.X, 1, (c, t), 0.0))
        out.append((GateKind.P, 0, (t,), theta / 2))

    if nctrl == 0:
        if kind is GateKind.SWAP:
            a, b = tgts
            out += [(GateKind.X, 1, (a, b), 0.0), (GateKind.X, 1, (b, a), 0.0),
                    (GateKind.X, 1, (a, b), 0.0)]
        else:
            out.append((kind, 0, tgts, op.param))
    elif nctrl == 1:
        c = ctrls[0]
        if kind in (GateKind.X, GateKind.Z):
            out.append((kind, 1, (c,) + tgts, 0.0))
        elif kind is GateKind.Y:
            t = tgts[0]
            out += [(GateKind.SDG, 0, (t,), 0.0), (GateKind.X, 1, (c, t), 0.0),
                    (GateKind.S, 0, (t,), 0.0)]
        elif kind is GateKind.H:
            t = tgts[0]
            out += [(GateKind.S, 0, (t,), 0.0), (GateKind.H, 0, (t,), 0.0),
                    (GateKind.T, 0, (t,), 0.0), (GateKind.X, 1, (c, t), 0.0),
                    (GateKind.TDG, 0, (t,), 0.0), (GateKind.H, 0, (t,), 0.0),
                    (GateKind.SDG, 0, (t,), 0.0)]
        elif kind is GateKind.P:
            cp(op.param, c, tgts[0])
        elif kind in _CTRL1_PHASE:
            cp(_CTRL1_PHASE[kind], c, tgts[0])
        elif kind is GateKind.SWAP:
            a, b = tgts
            out += [(GateKind.X, 1, (b, a), 0.0), (GateKind.X, 2, (c, a, b), 0.0),
                    (GateKind.X, 1, (b, a), 0.0)]
    elif nctrl == 2 and kind is GateKind.X:
        out.append((GateKind.X, 2, qs, 0.0))
    else:
        raise BackendError(
            "multi-controlled gate survived; run decomposition before the "
            "QIR backend"
        )
    return out


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
            for kind, nctrl, pos, param in _legalize_for_qir(op):
                args = [idxs[p] for p in pos]
                if kind is GateKind.P:
                    name = "__quantum__qis__rz__body"
                    sig = "double, %Qubit*"
                    call_args = f"double {_fmt_angle(param)}, {qref(args[0])}"
                elif nctrl == 0 and kind in _QIR_PLAIN:
                    name = f"__quantum__qis__{_QIR_PLAIN[kind]}__body"
                    sig = "%Qubit*"
                    call_args = qref(args[0])
                elif nctrl == 0 and kind in _QIR_ADJ:
                    name = f"__quantum__qis__{_QIR_ADJ[kind]}__adj"
                    sig = "%Qubit*"
                    call_args = qref(args[0])
                elif nctrl == 1 and kind is GateKind.X:
                    name = "__quantum__qis__cnot__body"
                    sig = "%Qubit*, %Qubit*"
                    call_args = f"{qref(args[0])}, {qref(args[1])}"
                elif nctrl == 1 and kind is GateKind.Z:
                    name = "__quantum__qis__cz__body"
                    sig = "%Qubit*, %Qubit*"
                    call_args = f"{qref(args[0])}, {qref(args[1])}"
                elif nctrl == 2 and kind is GateKind.X:
                    name = "__quantum__qis__ccx__body"
                    sig = "%Qubit*, %Qubit*, %Qubit*"
                    call_args = ", ".join(qref(a) for a in args)
                else:
                    raise BackendError(f"no intrinsic for {kind} with {nctrl} controls")
                used.add(f"declare void @{name}({sig})")
                body.append(f"  call void @{name}({call_args})")
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
