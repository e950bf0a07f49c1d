"""A reader for the OpenQASM 3 subset ``qbc.backends.emit_qasm3`` writes.

The tests and ``scripts/regen_goldens.py`` re-read emitted QASM with it, so
a round trip checks register allocation and the gate naming: it inverts the
writer's names, which come from ``qcirc.GateKind``. Text outside the subset
raises ``BackendError`` naming the statement.
"""

from __future__ import annotations

import re

from qbc.backends import BackendError, _C_PREFIXED
from qbc.qcirc import (
    N_TARGETS, Gate, GateKind, QCircFn, QCircModule, QOp, append_gates,
)


# Gate name -> (kind, controls): the inverse of ``_qasm_gate``'s naming, and
# stdgates.inc's Toffoli.
_QASM_GATES = (
    {kind.value: (kind, 0) for kind in GateKind}
    | {"c" + kind.value: (kind, 1) for kind in _C_PREFIXED}
    | {"cp": (GateKind.P, 1), "ccx": (GateKind.X, 2)}
)


def read_qasm3(text: str) -> QCircModule:
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
