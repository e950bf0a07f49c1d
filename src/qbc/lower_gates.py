"""
Lowering the basis-level IR to the gate-level dataflow IR: preps become
allocations plus fixed rotations, translations become circuits synthesized
from their two bases alone (every phase in them is already a float), embeds
become compute-copy-uncompute networks with clean ancillas, and measurement
destandardizes into the computational basis.

Requires an inlined module: any surviving call or indirect call is a
diagnostic, since the gate level has no call ops.

Qubits are tracked as physical wire slots; IR values map to slot lists and
each slot remembers its current dataflow value id. Conditional regions then
chain naturally: both branches' gates thread the same slots.
"""

from __future__ import annotations

from typing import Sequence

from .diagnostics import CompileError
from .qcirc import (
    Gate, GateKind, QCircFn, QCircModule, QOp, append_gates, g,
)
from .qwir import QwFunc, QwModule, QwOp
from .qwir_passes import undo_swaps
from .synth import (
    embed_gates, lower_translation, measurement_rotation, std_gates,
)


class _GateLowerer:
    def __init__(self, m: QwModule, src: QwFunc):
        self.m = m
        self.src = src
        self.fn = QCircFn(src.name)
        self.qmap: dict[int, list[int]] = {}  # IR value -> wire slots
        self.bmap: dict[int, list[int]] = {}  # IR value -> bit value ids
        self.slot_val: list[int] = []  # slot -> current dataflow id

    def alloc_slot(self) -> int:
        q = self.fn.new_id()
        self.fn.ops.append(QOp("qalloc", results=(q,)))
        self.slot_val.append(q)
        return len(self.slot_val) - 1

    def emit_gates(self, slots: list[int], gates: Sequence[Gate], condition) -> None:
        wires = [self.slot_val[s] for s in slots]
        append_gates(self.fn, wires, gates, condition)
        for s, v in zip(slots, wires):
            self.slot_val[s] = v

    def run(self) -> QCircFn:
        if any(self.src.types[p].kind == "qubit" for p in self.src.params):
            raise CompileError("entry takes qubits")
        for op in self.src.block.ops:
            self.lower_op(op, None)
        return self.fn

    def lower_op(self, op: QwOp, condition) -> None:
        k = op.kind
        if k == "qbprep":
            eigenbits = op.attrs["eigenbits"]
            prim = op.attrs["prim"]
            slots = [self.alloc_slot() for _ in eigenbits]
            gates = []
            for i, bitc in enumerate(eigenbits):
                if bitc == "1":
                    gates.append(g(GateKind.X, i))
                gates += std_gates(prim, (i,), stdward=False)
            self.emit_gates(slots, gates, condition)
            self.qmap[op.results[0]] = slots
        elif k == "qbtrans":
            slots = list(self.qmap[op.operands[0]])
            gates = lower_translation(op.attrs["b_in"], op.attrs["b_out"])
            self.emit_gates(slots, gates, condition)
            self.qmap[op.results[0]] = slots
        elif k == "qbmeas":
            if condition is not None:
                raise CompileError("measurement inside a conditional")
            slots = list(self.qmap[op.operands[0]])
            self.emit_gates(slots, measurement_rotation(op.attrs["basis"]), None)
            bits = []
            for s in slots:
                b = self.fn.new_id()
                self.fn.ops.append(QOp("measure", (self.slot_val[s],), (b,)))
                bits.append(b)
            self.bmap[op.results[0]] = bits
        elif k == "qbdiscard":
            if condition is not None:
                raise CompileError("discard inside a conditional")
            for s in self.qmap[op.operands[0]]:
                self.fn.ops.append(QOp("qfree", (self.slot_val[s],)))
        elif k in ("qbpack", "bitpack"):
            vmap = self.qmap if k == "qbpack" else self.bmap
            vmap[op.results[0]] = [x for v in op.operands for x in vmap[v]]
        elif k in ("qbunpack", "bitunpack"):
            vmap = self.qmap if k == "qbunpack" else self.bmap
            ids = vmap[op.operands[0]]
            at = 0
            for r, s in zip(op.results, op.attrs["sizes"]):
                vmap[r] = ids[at : at + s]
                at += s
        elif k == "embed":
            cfn = self.m.classicals[op.attrs["fn"]]
            gates, width, anc = embed_gates(cfn, op.attrs["mode"], op.attrs.get("pred"))
            slots = list(self.qmap[op.operands[0]])
            if width != len(slots):
                raise CompileError("embed width mismatch")
            anc_slots = [self.alloc_slot() for _ in range(anc)]
            self.emit_gates(slots + anc_slots, gates, condition)
            for s in anc_slots:
                self.fn.ops.append(QOp("qfreez", (self.slot_val[s],)))
            self.qmap[op.results[0]] = slots
        elif k == "cond":
            self.lower_cond(op, condition)
        elif k == "ret":
            bits = []
            for v in op.operands:
                if self.src.types[v].kind != "bit":
                    raise CompileError("entry must return bits")
                bits.extend(self.bmap[v])
            self.fn.ops.append(QOp("ret", tuple(bits)))
        elif k in ("call", "call_indirect", "func_const", "func_adj",
                   "func_pred"):
            raise CompileError(
                f"residual {k} op; gate-level lowering needs a fully "
                "inlined module"
            )
        else:
            raise CompileError(f"cannot lower op {k}")

    def lower_cond(self, op: QwOp, condition) -> None:
        if condition is not None:
            raise CompileError("nested conditionals are not supported")
        (flag,) = self.bmap[op.operands[0]]
        branch_slots = []
        for region, truth in ((op.regions[0], True), (op.regions[1], False)):
            for inner in region.ops[:-1]:
                self.lower_op(inner, (flag, truth))
            term = region.ops[-1]
            slots = []
            for v in term.operands:
                slots.extend(self.qmap[v])
            branch_slots.append(slots)
        then_slots, else_slots = branch_slots
        if then_slots != else_slots:
            # The then-route permutes wires by renaming; realize that routing
            # physically, only when the flag is set, so both branches agree
            # on the else-route slot order.
            out = list(then_slots)
            for i, j in undo_swaps([else_slots.index(s) for s in out]):
                self.emit_gates([out[i], out[j]], [g(GateKind.SWAP, 0, 1)],
                                (flag, True))
                out[i], out[j] = out[j], out[i]
        out_slots = else_slots
        at = 0
        for r in op.results:
            d = self.src.types[r].dim
            self.qmap[r] = out_slots[at : at + d]
            at += d


def lower_module(m: QwModule) -> QCircModule:
    """Lower the entry function of an inlined module to gate-level IR."""
    fn = _GateLowerer(m, m.entry_fn).run()
    return QCircModule({fn.name: fn}, entry=fn.name)
