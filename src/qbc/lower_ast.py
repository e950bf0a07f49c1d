"""
Lowering of typed, tensor-flattened ASTs into the basis-level IR.

Tensor products of function values become lambdas that unpack, call each
part, and repack; translations, measurements, discards and embeds in value
position become lambdas wrapping that one op (``_op_lambda``); the pipe
operator always emits indirect calls. Ops are built with ``FnBuilder``.

The input has passed expansion and the checker, so every name is bound and
every node is one that lowering handles; nothing is checked again here.
Each function value's type comes from the rules next to ``qwir.QwTy``, the
ones the checker applied, and a kernel's is its ``TypedProgram.fn_types``
entry.
"""

from __future__ import annotations

from typing import Optional

from . import bases
from .ast_nodes import (
    DiscardNode, EmbedNode, ExprNode, MeasureNode, PipeNode, PredNode, QpuFn,
    QubitLitNode, TensorNode, TransNode, AdjointNode, VarNode,
)
from .bases import Prim
from .qwir import (
    FnBuilder, QwModule, QwTy, discard_fn, embed_fn, measure_fn, pred_fn,
    qubit, rev_fn, tensor_fn,
)
from .expand import evaluate
from .typecheck import TypedProgram, basis_of


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
            parts = [self.value(b, p, env) for p in e.parts]
            # Typechecking makes the parts all qubits or all bits.
            ty = QwTy(b.fn.types[parts[0]].kind,
                      sum(b.fn.types[p].dim for p in parts))
            return b.emit("bitpack" if ty.kind == "bit" else "qbpack",
                          parts, [ty])[0]
        if isinstance(e, PipeNode):
            # Typechecking leaves a discard (no result) only as the last stage.
            v = self.value(b, e.value, env)
            for fn in e.fns:
                fv = self.fn_value(b, fn, env)
                fty = b.fn.types[fv]
                if fty.fout_kind == "none":
                    b.emit("call_indirect", [fv, v], [])
                    return None
                (v,) = b.emit("call_indirect", [fv, v], [fty.out])
            return v
        if isinstance(e, VarNode) and e.name in env:
            return env[e.name]
        # Remaining expression forms denote function values.
        return self.fn_value(b, e, env)

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

    # -- function values ------------------------------------------------------

    def fn_value(self, b: FnBuilder, e: ExprNode, env) -> int:
        if isinstance(e, TransNode):
            b_in = basis_of(e.b_in)
            b_out = basis_of(e.b_out)
            return self._op_lambda(b, "qbtrans", rev_fn(b_in.dim),
                                   {"b_in": b_in, "b_out": b_out})
        if isinstance(e, MeasureNode):
            basis = basis_of(e.basis)
            return self._op_lambda(b, "qbmeas", measure_fn(basis.dim),
                                   {"basis": basis})
        if isinstance(e, DiscardNode):
            return self._op_lambda(b, "qbdiscard", discard_fn(e.dim.value))
        if isinstance(e, EmbedNode):
            fty = embed_fn(self.tp.classicals[e.fn], e.mode)
            return self._op_lambda(b, "embed", fty,
                                   {"fn": e.fn, "mode": e.mode, "pred": None})
        if isinstance(e, VarNode):
            (fv,) = b.emit("func_const", [], [self.tp.fn_types[e.name]],
                           {"sym": e.name})
            return fv
        if isinstance(e, AdjointNode):
            inner = self.fn_value(b, e.fn, env)
            (fv,) = b.emit("func_adj", [inner], [b.fn.types[inner]])
            return fv
        if isinstance(e, PredNode):
            basis = basis_of(e.basis)
            inner = self.fn_value(b, e.fn, env)
            (fv,) = b.emit("func_pred", [inner],
                           [pred_fn(basis.dim, b.fn.types[inner])],
                           {"basis": basis})
            return fv
        if isinstance(e, TensorNode):
            return self._tensor_fn(b, e, env)
        # What is left is a conditional.
        flag = self.value(b, e.flag, env)
        then_region = b.push_block([])
        tv = self.fn_value(b, e.then, env)
        b.emit("yield", [tv])
        b.pop_block()
        else_region = b.push_block([])
        ev = self.fn_value(b, e.els, env)
        b.emit("yield", [ev])
        b.pop_block()
        (fv,) = b.emit("cond", [flag], [b.fn.types[tv]], {},
                       [then_region, else_region])
        return fv

    def _op_lambda(self, b: FnBuilder, kind: str, fty: QwTy,
                   attrs=None) -> int:
        """A lambda of type ``fty`` whose body runs one ``kind`` op on its
        qubit argument and yields the op's results."""
        region = b.push_block([qubit(fty.fin)])
        outs = [] if fty.fout_kind == "none" else [fty.out]
        b.emit("yield", b.emit(kind, region.args, outs, attrs))
        b.pop_block()
        (fv,) = b.emit("lambda", [], [fty], {}, [region])
        return fv

    def _tensor_fn(self, b: FnBuilder, e: TensorNode, env) -> int:
        parts = [self.fn_value(b, p, env) for p in e.parts]
        ptys = [b.fn.types[p] for p in parts]
        fty = tensor_fn(ptys)
        # Lambda captures the part function values; its body unpacks the
        # combined register, calls each part, and repacks the results.
        region = b.push_block(ptys + [qubit(fty.fin)])
        cap_args = region.args[: len(parts)]
        qarg = region.args[-1]
        pieces = b.emit(
            "qbunpack", [qarg], [qubit(t.fin) for t in ptys],
            {"sizes": tuple(t.fin for t in ptys)},
        )
        outs = []
        for cap, piece, ty in zip(cap_args, pieces, ptys):
            if ty.fout_kind == "none":
                b.emit("call_indirect", [cap, piece], [])
            else:
                outs += b.emit("call_indirect", [cap, piece], [ty.out])
        if len(outs) > 1:
            outs = b.emit("qbpack" if fty.rev else "bitpack", outs, [fty.out])
        b.emit("yield", outs)
        b.pop_block()
        (fv,) = b.emit("lambda", parts, [fty], {}, [region])
        return fv
