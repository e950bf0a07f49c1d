"""
Lowering of typed, tensor-flattened ASTs into the basis-level IR.

A function expression only ever stands in function position, so lowering
applies each pipe stage to the value piped into it (``apply``), with an
adjoint flag and a predicate basis carried down through ``~``, ``&``,
tensors and conditionals. A translation, measurement, discard or embed is
emitted in place, a kernel becomes one ``call`` with its ``adj`` and
``pred`` attributes, a tensor unpacks, applies each part and repacks, and a
conditional applies each branch inside its ``cond`` region. No function
value reaches the basis IR. Ops are built with ``FnBuilder``.

The input has been expanded and checked in one walk (``expand``), so every
name is bound and every node is one that lowering handles; nothing is
checked again here. A tensor part's input width comes from the rules next
to ``qwir.QwTy``, the ones that walk applied, and a kernel's type is its
``TypedProgram.fn_types`` entry.
"""

from __future__ import annotations

from typing import Optional

from . import bases
from .ast_nodes import (
    AdjointNode, DiscardNode, EmbedNode, ExprNode, MeasureNode, PipeNode,
    PredNode, QpuFn, QubitLitNode, TensorNode, TransNode, VarNode,
)
from .bases import Basis, Prim, concat
from .qwir import (
    FnBuilder, QwModule, QwTy, bit, discard_fn, embed_fn, measure_fn, pred_fn,
    qubit, rev_fn, tensor_fn,
)
from .expand import TypedProgram, basis_of, evaluate


def lower_to_ir(tp: TypedProgram) -> QwModule:
    m = QwModule()
    m.entry = tp.program.entry
    m.classicals = dict(tp.classicals)
    lw = _Lowerer(tp, m)
    for q in tp.program.qpus:
        lw.lower_fn(q)
    return m


class _Lowerer:
    def __init__(self, tp: TypedProgram, m: QwModule):
        self.tp = tp
        self.m = m

    def lower_fn(self, q: QpuFn) -> None:
        b = FnBuilder(q.name, q.reversible)
        env: dict[str, int] = {}
        for p in q.params:
            env[p.name] = b.param(qubit(p.type.dim.value))
        for let in q.lets:
            v = self.value(b, let.value, env)
            if len(let.names) == 1:
                env[let.names[0]] = v
                continue
            kind = b.fn.types[v].kind
            sizes = tuple(t.dim.value for t in let.types)
            results = b.emit(
                "qbunpack" if kind == "qubit" else "bitunpack",
                [v], [QwTy(kind, s) for s in sizes], {"sizes": sizes},
            )
            env.update(zip(let.names, results))
        out = self.value(b, q.body, env)
        operands = [out] if out is not None else []
        b.emit("ret", operands)
        ret_tys = [b.fn.types[v] for v in operands]
        self.m.functions[q.name] = b.finish(ret_tys)

    # -- values -------------------------------------------------------------

    def value(self, b: FnBuilder, e: ExprNode, env) -> Optional[int]:
        if isinstance(e, QubitLitNode):
            return self._qubit_literal(b, e)
        if isinstance(e, TensorNode):
            return _pack(b, [self.value(b, p, env) for p in e.parts])
        if isinstance(e, PipeNode):
            # Expansion leaves a discard (no result) only as the last stage.
            v = self.value(b, e.value, env)
            for fn in e.fns:
                v = self.apply(b, fn, v, env)
            return v
        return env[e.name]  # expansion leaves only bound names as values

    def _qubit_literal(self, b: FnBuilder, e: QubitLitNode) -> int:
        runs: list[tuple[Prim, str]] = []
        for ch in e.chars:
            prim, bitc = bases.CHAR_TO_PRIM_BIT[ch]
            if runs and runs[-1][0] is prim:
                runs[-1] = (prim, runs[-1][1] + bitc)
            else:
                runs.append((prim, bitc))
        vals = [b.emit("qbprep", [], [qubit(len(eigenbits))],
                       {"prim": prim, "eigenbits": eigenbits})[0]
                for prim, eigenbits in runs]
        (v,) = vals if len(vals) == 1 else b.emit("qbpack", vals,
                                                  [qubit(len(e.chars))])
        if e.phase is not None:
            # The phase goes on the first run's vector.
            theta = evaluate(e.phase, {}, e.pos)
            prim0, bits0 = runs[0]
            parts = [v] if len(runs) == 1 else b.emit(
                "qbunpack", [v], [qubit(len(r[1])) for r in runs],
                {"sizes": tuple(len(r[1]) for r in runs)})

            def one(*phase):
                return bases.basis(bases.BasisLiteral((
                    bases.BasisVector(prim0, bits0, *phase),)))

            (parts[0],) = b.emit("qbtrans", parts[:1], [qubit(len(bits0))],
                                 {"b_in": one(), "b_out": one(theta)})
            (v,) = parts if len(parts) == 1 else b.emit(
                "qbpack", parts, [qubit(len(e.chars))])
        return v

    # -- function application -------------------------------------------------

    def apply(self, b: FnBuilder, e: ExprNode, v: int, env, adj: bool = False,
              pred: Optional[Basis] = None) -> Optional[int]:
        """Emit the function expression ``e`` applied to the qubit value
        ``v`` and return its result, None for a discard: the adjoint of
        ``e`` with ``adj``, and with ``pred`` set, ``e`` predicated on it,
        whose qubits come first in ``v``."""
        if isinstance(e, AdjointNode):
            return self.apply(b, e.fn, v, env, not adj, pred)
        if isinstance(e, PredNode):
            return self.apply(b, e.fn, v, env, adj, concat(pred, basis_of(e.basis)))
        ty = b.fn.types[v]
        if isinstance(e, TransNode):
            sides = [concat(pred, basis_of(s)) for s in (e.b_in, e.b_out)]
            if adj:
                sides.reverse()
            return b.emit("qbtrans", [v], [ty], {
                "b_in": sides[0], "b_out": sides[1], "pos": e.pos})[0]
        if isinstance(e, EmbedNode):
            # Bennett embeddings and sign flips are their own adjoints.
            return b.emit("embed", [v], [ty],
                          {"fn": e.fn, "mode": e.mode, "pred": pred})[0]
        if isinstance(e, MeasureNode):
            return b.emit("qbmeas", [v], [bit(ty.dim)],
                          {"basis": basis_of(e.basis)})[0]
        if isinstance(e, DiscardNode):
            b.emit("qbdiscard", [v])
            return None
        if isinstance(e, VarNode):
            out = self.tp.fn_types[e.name].out if pred is None else ty
            results = b.emit("call", [v], [] if out.kind == "none" else [out],
                             {"sym": e.name, "adj": adj, "pred": pred})
            return results[0] if results else None
        if isinstance(e, TensorNode):
            return self._apply_tensor(b, e, v, env, adj, pred)
        # What is left is a conditional: each branch applies its function.
        flag = self.value(b, e.flag, env)
        regions = []
        for branch in (e.then, e.els):
            regions.append(b.push_block())
            out = self.apply(b, branch, v, env, adj, pred)
            b.emit("yield", [out])
            b.pop_block()
        return b.emit("cond", [flag], [b.fn.types[out]], {}, regions)[0]

    def _apply_tensor(self, b: FnBuilder, e: TensorNode, v: int, env,
                      adj: bool, pred: Optional[Basis]) -> Optional[int]:
        """``apply`` of a tensor: unpack ``v``, apply each part to its
        slice (last part first for the adjoint), and repack the results.
        Under a predicate, each part runs on the predicate's qubits and its
        own slice."""
        fins = [self.fn_type(p).fin for p in e.parts]
        p = 0 if pred is None else pred.dim
        if p:
            pred_q, v = b.emit("qbunpack", [v], [qubit(p), qubit(sum(fins))],
                               {"sizes": (p, sum(fins))})
        pieces = b.emit("qbunpack", [v], [qubit(n) for n in fins],
                        {"sizes": tuple(fins)})
        outs: list[Optional[int]] = [None] * len(fins)
        for i in reversed(range(len(fins))) if adj else range(len(fins)):
            piece = pieces[i]
            if p:
                (piece,) = b.emit("qbpack", [pred_q, piece], [qubit(p + fins[i])])
            outs[i] = self.apply(b, e.parts[i], piece, env, adj, pred)
            if p:
                pred_q, outs[i] = b.emit("qbunpack", [outs[i]],
                                         [qubit(p), qubit(fins[i])],
                                         {"sizes": (p, fins[i])})
        out = _pack(b, [o for o in outs if o is not None])
        if p:
            (out,) = b.emit("qbpack", [pred_q, out], [qubit(p + sum(fins))])
        return out

    def fn_type(self, e: ExprNode) -> QwTy:
        """The type of the function expression ``e``."""
        if isinstance(e, TransNode):
            return rev_fn(basis_of(e.b_in).dim)
        if isinstance(e, MeasureNode):
            return measure_fn(basis_of(e.basis).dim)
        if isinstance(e, DiscardNode):
            return discard_fn(e.dim.value)
        if isinstance(e, EmbedNode):
            return embed_fn(self.tp.classicals[e.fn], e.mode)
        if isinstance(e, VarNode):
            return self.tp.fn_types[e.name]
        if isinstance(e, AdjointNode):
            return self.fn_type(e.fn)
        if isinstance(e, PredNode):
            return pred_fn(basis_of(e.basis).dim, self.fn_type(e.fn))
        if isinstance(e, TensorNode):
            return tensor_fn([self.fn_type(p) for p in e.parts])
        return self.fn_type(e.then)


def _pack(b: FnBuilder, parts: list[int]) -> Optional[int]:
    """One value of ``parts`` in order, all qubits or all bits: None for
    none, the part itself for one."""
    if len(parts) < 2:
        return parts[0] if parts else None
    ty = QwTy(b.fn.types[parts[0]].kind, sum(b.fn.types[p].dim for p in parts))
    return b.emit("bitpack" if ty.kind == "bit" else "qbpack", parts, [ty])[0]
