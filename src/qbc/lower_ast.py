"""
Lowering of typed, tensor-flattened ASTs into the basis-level IR.

Tensor products of function values become lambdas that unpack, call each
part, and repack; translations, measurements, discards and embeds in value
position become lambdas wrapping that one op (``_op_lambda``); the pipe
operator always emits indirect calls. Ops are built with ``FnBuilder``.
"""

from __future__ import annotations

from typing import Optional

from . import bases
from .ast_nodes import (
    CondNode, DiscardNode, EmbedNode, ExprNode, MeasureNode, PipeNode, Pos,
    PredNode, QpuFn, QubitLitNode, TensorNode, TransNode, AdjointNode,
    VarNode,
)
from .bases import Prim
from .diagnostics import CompileError
from .qwir import FnBuilder, QwModule, bit, func, qubit
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
            vty = b.fn.types[v]
            sizes = tuple(t.dim.value for t in let.types)
            kinds = [qubit(s) if vty.kind == "qubit" else bit(s) for s in sizes]
            results = b.emit(
                "qbunpack" if vty.kind == "qubit" else "bitunpack",
                [v], kinds, {"sizes": sizes},
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
            dim = sum(b.fn.types[p].dim for p in parts)
            if b.fn.types[parts[0]].kind == "bit":
                return b.emit("bitpack", parts, [bit(dim)])[0]
            return b.emit("qbpack", parts, [qubit(dim)])[0]
        if isinstance(e, PipeNode):
            # Typechecking leaves a discard (no result) only as the last stage.
            v = self.value(b, e.value, env)
            for fn in e.fns:
                fv = self.fn_value(b, fn, env)
                fty = b.fn.types[fv]
                if fty.fout_kind == "none":
                    b.emit("call_indirect", [fv, v], [])
                    return None
                out_ty = qubit(fty.fout_dim) if fty.fout_kind == "qubit" else bit(fty.fout_dim)
                (v,) = b.emit("call_indirect", [fv, v], [out_ty])
            return v
        if isinstance(e, VarNode):
            if e.name in env:
                return env[e.name]
            raise CompileError(f"unknown value '{e.name}'", e.pos)
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
            return self._op_lambda(b, "qbtrans", b_in.dim, [qubit(b_in.dim)],
                                   {"b_in": b_in, "b_out": b_out})
        if isinstance(e, MeasureNode):
            basis = basis_of(e.basis)
            return self._op_lambda(b, "qbmeas", basis.dim, [bit(basis.dim)],
                                   {"basis": basis})
        if isinstance(e, DiscardNode):
            return self._op_lambda(b, "qbdiscard", e.dim.value, [])
        if isinstance(e, EmbedNode):
            w = self.tp.classicals[e.fn].embed_width(e.mode)
            return self._op_lambda(b, "embed", w, [qubit(w)],
                                   {"fn": e.fn, "mode": e.mode, "pred": None})
        if isinstance(e, VarNode):
            fty = self.tp.fn_types.get(e.name)
            if fty is None:
                raise CompileError(f"unknown function '{e.name}'", e.pos)
            (fv,) = b.emit(
                "func_const", [],
                [func(fty.in_dim, fty.out.kind, fty.out.dim, fty.rev)],
                {"sym": e.name},
            )
            return fv
        if isinstance(e, AdjointNode):
            inner = self.fn_value(b, e.fn, env)
            (fv,) = b.emit("func_adj", [inner], [b.fn.types[inner]])
            return fv
        if isinstance(e, PredNode):
            basis = basis_of(e.basis)
            inner = self.fn_value(b, e.fn, env)
            ity = b.fn.types[inner]
            n = basis.dim + ity.fin
            (fv,) = b.emit("func_pred", [inner],
                           [func(n, "qubit", n, True)], {"basis": basis})
            return fv
        if isinstance(e, TensorNode):
            return self._tensor_fn(b, e, env)
        if isinstance(e, CondNode):
            flag = self.value(b, e.flag, env)
            then_region = b.push_block([])
            tv = self.fn_value(b, e.then, env)
            b.emit("yield", [tv])
            b.pop_block()
            tty = b.fn.types[tv]
            else_region = b.push_block([])
            ev = self.fn_value(b, e.els, env)
            b.emit("yield", [ev])
            b.pop_block()
            (fv,) = b.emit("cond", [flag], [tty], {}, [then_region, else_region])
            return fv
        raise CompileError(
            f"cannot lower {type(e).__name__} as a function value",
            getattr(e, "pos", Pos()),
        )

    def _op_lambda(self, b: FnBuilder, kind: str, n: int, result_tys: list,
                   attrs=None) -> int:
        """A lambda whose body runs one ``kind`` op on its qubit[n] argument
        and yields the op's results; it is reversible exactly when it
        yields qubits."""
        region = b.push_block([qubit(n)])
        b.emit("yield", b.emit(kind, region.args, result_tys, attrs))
        b.pop_block()
        kind, dim = ((result_tys[0].kind, result_tys[0].dim) if result_tys
                     else ("none", 0))
        (fv,) = b.emit("lambda", [], [func(n, kind, dim, kind == "qubit")], {},
                       [region])
        return fv

    def _tensor_fn(self, b: FnBuilder, e: TensorNode, env) -> int:
        parts = [self.fn_value(b, p, env) for p in e.parts]
        ptys = [b.fn.types[p] for p in parts]
        total_in = sum(t.fin for t in ptys)
        all_rev = all(t.rev and t.fout_kind == "qubit" for t in ptys)
        out_kind = "qubit" if all_rev else ("bit" if any(
            t.fout_kind == "bit" for t in ptys) else "none")
        total_out = sum(t.fout_dim for t in ptys)
        # Lambda captures the part function values; its body unpacks the
        # combined register, calls each part, and repacks the results.
        region = b.push_block([b.fn.types[p] for p in parts] + [qubit(total_in)])
        cap_args = region.args[: len(parts)]
        qarg = region.args[-1]
        pieces = b.emit(
            "qbunpack", [qarg], [qubit(t.fin) for t in ptys],
            {"sizes": tuple(t.fin for t in ptys)},
        )
        outs, out_tys = [], []
        for cap, piece, ty in zip(cap_args, pieces, ptys):
            if ty.fout_kind == "none":
                b.emit("call_indirect", [cap, piece], [])
            else:
                oty = qubit(ty.fout_dim) if ty.fout_kind == "qubit" else bit(ty.fout_dim)
                (r,) = b.emit("call_indirect", [cap, piece], [oty])
                outs.append(r)
                out_tys.append(oty)
        if out_kind == "none":
            b.emit("yield", [])
        elif len(outs) == 1:
            b.emit("yield", [outs[0]])
        else:
            pack_kind = "qbpack" if out_kind == "qubit" else "bitpack"
            (packed,) = b.emit(pack_kind, outs, [
                qubit(total_out) if out_kind == "qubit" else bit(total_out)
            ])
            b.emit("yield", [packed])
        b.pop_block()
        (fv,) = b.emit(
            "lambda", parts,
            [func(total_in, out_kind, total_out, all_rev)], {}, [region],
        )
        return fv
