"""
Type checking for expanded programs: linear qubit usage, reversibility
restrictions, basis-literal validity, and span equivalence of translations.

Runs on the output of expansion, so every dimension is a ``Num`` holding
an int and captures have been baked away. Each angle is still an
expression; the check folds it with ``expand.evaluate``, the one evaluator
of dimensions and angles, so a bad angle is reported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import bases
from .ast_nodes import (
    BasisLitNode, BuiltinBasisNode, CondNode, DiscardNode, EmbedNode,
    ExprNode, MeasureNode, PipeNode, Pos, PredNode, Program, QpuFn,
    QubitLitNode, RepeatNode, TensorNode, TransNode, AdjointNode, VarNode,
    CallNode, BitsNode, AngleNode, ClassicalFn, CExpr, CVar, CLit, CBin,
    CNot, CIndex, CSlice, CReduce, CRepeat, map_children,
)
from .bases import Prim, check_span_equivalence, fully_spans, validate_literal
from .diagnostics import CompileError
from .expand import evaluate


@dataclass(frozen=True)
class VTy:
    kind: str  # qubit | bit | basis | none; an angle never reaches here
    dim: int = 0

    def __str__(self) -> str:
        if self.kind == "none":
            return self.kind
        return f"{self.kind}[{self.dim}]"


@dataclass(frozen=True)
class FTy:
    in_dim: int
    out: VTy
    rev: bool

    def __str__(self) -> str:
        arrow = "->rev" if self.rev else "->"
        return f"qubit[{self.in_dim}] {arrow} {self.out}"


Ty = Union[VTy, FTy]


def basis_of(e: ExprNode) -> bases.Basis:
    """Convert a basis-typed expression into a canon-form Basis value, with
    its phases folded."""
    elements: list[bases.BasisElement] = []

    def walk(node):
        if isinstance(node, TensorNode):
            for p in node.parts:
                walk(p)
            return
        if isinstance(node, BuiltinBasisNode):
            elements.append(bases.BuiltinBasis(Prim(node.prim), node.dim.value))
            return
        if isinstance(node, BasisLitNode):
            vecs = []
            for v in node.vectors:
                phase = None
                if v.phase is not None:
                    phase = evaluate(v.phase, {}, v.pos)
                try:
                    vecs.append(bases.vector_from_chars(v.chars, phase))
                except ValueError as ex:
                    raise CompileError(str(ex), v.pos)
            elements.append(bases.BasisLiteral(tuple(vecs)))
            return
        raise CompileError("expected a basis expression", getattr(node, "pos", Pos()))

    walk(e)
    return bases.Basis(tuple(elements))


class TypeChecker:
    def __init__(self, program: Program):
        self.program = program
        self.fn_types: dict[str, FTy] = {}
        self.classicals: dict[str, ClassicalFn] = {}

    def run(self) -> "TypedProgram":
        for c in self.program.classicals:
            self._check_classical(c)
            self.classicals[c.name] = c
        for q in self.program.qpus:
            self.fn_types[q.name] = self._signature(q)
        for q in self.program.qpus:
            self._check_qpu(q)
        entry = self.program.qpu(self.program.entry)
        if entry is None:
            raise CompileError(f"missing entry kernel '{self.program.entry}'", Pos(1, 1))
        if self.fn_types[entry.name].in_dim != 0:
            raise CompileError("entry kernel must take no qubits", entry.pos)
        return TypedProgram(self.program, self.fn_types, self.classicals)

    def _signature(self, q: QpuFn) -> FTy:
        in_dim = 0
        for p in q.params:
            if p.type.kind == "qubit":
                in_dim = p.type.dim.value
            else:
                raise CompileError(f"unexpanded capture parameter '{p.name}'", p.pos)
        out = VTy(q.ret_type.kind, q.ret_type.dim.value)
        return FTy(in_dim, out, q.reversible)

    # -- classical functions --------------------------------------------------

    def _check_classical(self, c: ClassicalFn) -> None:
        env = {p.name: p.type.dim.value for p in c.params}
        width = self._cwidth(c.body, env)
        want = c.ret_type.dim.value
        if width != want:
            raise CompileError(
                f"classical function {c.name} returns bit[{width}], "
                f"declared bit[{want}]",
                c.pos,
            )

    def _cwidth(self, e: CExpr, env: dict[str, int]) -> int:
        if isinstance(e, CVar):
            if e.name not in env:
                raise CompileError(f"unknown name '{e.name}'", e.pos)
            return env[e.name]
        if isinstance(e, CLit):
            return len(e.bits)
        if isinstance(e, CBin):
            lw = self._cwidth(e.left, env)
            rw = self._cwidth(e.right, env)
            if lw != rw:
                raise CompileError(f"operand widths differ: {lw} vs {rw}", e.pos)
            return lw
        if isinstance(e, CNot):
            return self._cwidth(e.operand, env)
        if isinstance(e, CIndex):
            w = self._cwidth(e.operand, env)
            if not 0 <= e.index.value < w:
                raise CompileError(f"bit index {e.index.value} out of range", e.pos)
            return 1
        if isinstance(e, CSlice):
            w = self._cwidth(e.operand, env)
            lo, hi = e.lo.value, e.hi.value
            if not (0 <= lo < hi <= w):
                raise CompileError(f"bad slice [{lo}:{hi}] of bit[{w}]", e.pos)
            return hi - lo
        if isinstance(e, CReduce):
            self._cwidth(e.operand, env)
            return 1
        if isinstance(e, CRepeat):
            w = self._cwidth(e.operand, env)
            if w != 1:
                raise CompileError("repeat() takes a single bit", e.pos)
            return e.count.value
        raise CompileError("bad classical expression", getattr(e, "pos", Pos()))

    # -- qpu kernels -----------------------------------------------------------

    def _check_qpu(self, q: QpuFn) -> None:
        # Each name maps to [type, uses] of its latest binding, so a let that
        # rebinds a name starts a count of its own.
        env: dict[str, list] = {
            p.name: [VTy("qubit", p.type.dim.value), 0] for p in q.params}
        params = list(env.items())
        scopes = []  # (let, its bindings) in order
        for let in q.lets:
            vty = self._expr(let.value, env, q.reversible)
            if not isinstance(vty, VTy) or vty.kind not in ("qubit", "bit"):
                raise CompileError("let binds qubit or bit values", let.pos)
            bound, total = [], 0
            for name, tnode in zip(let.names, let.types):
                if tnode is not None and tnode.kind != vty.kind:
                    raise CompileError(
                        f"let pattern kind {tnode.kind} does not match {vty}",
                        let.pos,
                    )
                ty = vty if tnode is None else VTy(tnode.kind, tnode.dim.value)
                total += ty.dim
                bound.append((name, [ty, 0]))
            if total != vty.dim:
                raise CompileError(f"let pattern covers {total} of {vty.dim}", let.pos)
            env.update(bound)
            scopes.append((let, bound))
        ty = self._expr(q.body, env, q.reversible)
        for let, bound in reversed(scopes):
            self._check_used_once(bound, let.pos)
        want = VTy(q.ret_type.kind, q.ret_type.dim.value)
        if not isinstance(ty, VTy) or ty != want:
            raise CompileError(f"kernel {q.name} returns {ty}, declared {want}", q.pos)
        self._check_used_once(params, q.pos)

    def _check_used_once(self, bound, pos: Pos) -> None:
        for name, (ty, uses) in bound:
            if ty.kind == "qubit" and uses != 1:
                raise CompileError(
                    f"qubit '{name}' used {uses} times; must be used exactly once",
                    pos,
                )

    def _expr(self, e: ExprNode, env, rev: bool) -> Ty:
        if isinstance(e, QubitLitNode):
            if e.phase is not None:
                evaluate(e.phase, {}, e.pos)
            return VTy("qubit", len(e.chars))
        if isinstance(e, BasisLitNode):
            # Every literal is validated here, as the walk reaches it.
            b = basis_of(e)
            msg = validate_literal(b.elements[0])
            if msg is not None:
                raise CompileError(msg, e.pos)
            return VTy("basis", b.dim)
        if isinstance(e, BuiltinBasisNode):
            return VTy("basis", e.dim.value)
        if isinstance(e, TensorNode):
            parts = [self._expr(p, env, rev) for p in e.parts]
            if all(isinstance(t, VTy) for t in parts):
                kinds = {t.kind for t in parts}
                if len(kinds) != 1 or "none" in kinds:
                    raise CompileError("cannot tensor mixed kinds", e.pos)
                return VTy(kinds.pop(), sum(t.dim for t in parts))
            if all(isinstance(t, FTy) for t in parts):
                if all(t.rev and t.out.kind == "qubit" for t in parts):
                    n = sum(t.in_dim for t in parts)
                    return FTy(n, VTy("qubit", n), True)
                if all(t.out.kind in ("bit", "none") for t in parts):
                    return FTy(
                        sum(t.in_dim for t in parts),
                        VTy("bit", sum(t.out.dim for t in parts if t.out.kind == "bit")),
                        False,
                    )
                raise CompileError(
                    "tensor operands must be all reversible or all measuring/discarding",
                    e.pos,
                )
            raise CompileError("cannot tensor values with functions", e.pos)
        if isinstance(e, TransNode):
            ti = self._expr(e.b_in, env, rev)
            to = self._expr(e.b_out, env, rev)
            if not (isinstance(ti, VTy) and ti.kind == "basis") or not (
                isinstance(to, VTy) and to.kind == "basis"
            ):
                raise CompileError("translation operands must be bases", e.pos)
            if ti.dim != to.dim:
                raise CompileError(
                    f"translation dimensions differ: {ti.dim} vs {to.dim}",
                    e.pos,
                )
            mismatch = check_span_equivalence(
                basis_of(e.b_in), basis_of(e.b_out))
            if mismatch is not None:
                raise CompileError(
                    f"translation sides span different spaces ({mismatch})",
                    e.pos,
                )
            return FTy(ti.dim, VTy("qubit", ti.dim), True)
        if isinstance(e, PipeNode):
            vty = self._expr(e.value, env, rev)
            for fn, bar in zip(e.fns, e.bars):
                fty = self._expr(fn, env, rev)
                if not isinstance(vty, VTy) or vty.kind != "qubit":
                    raise CompileError(f"pipe input must be qubits, found {vty}", bar)
                if not isinstance(fty, FTy):
                    raise CompileError(f"pipe target must be a function, found {fty}", bar)
                if rev and not fty.rev:
                    raise CompileError("irreversible operation inside a reversible kernel", bar)
                if vty.dim != fty.in_dim:
                    raise CompileError(
                        f"function takes qubit[{fty.in_dim}], found qubit[{vty.dim}]",
                        bar,
                    )
                vty = fty.out
            return vty
        if isinstance(e, AdjointNode):
            fty = self._expr(e.fn, env, rev)
            if not isinstance(fty, FTy) or not fty.rev or fty.out.kind != "qubit":
                raise CompileError("~ takes a reversible qubit function", e.pos)
            return fty
        if isinstance(e, PredNode):
            bty = self._expr(e.basis, env, rev)
            fty = self._expr(e.fn, env, rev)
            if not isinstance(bty, VTy) or bty.kind != "basis":
                raise CompileError("predicate must be a basis", e.pos)
            if not isinstance(fty, FTy) or not fty.rev or fty.out.kind != "qubit":
                raise CompileError("& takes a reversible qubit function", e.pos)
            n = bty.dim + fty.in_dim
            return FTy(n, VTy("qubit", n), True)
        if isinstance(e, MeasureNode):
            bty = self._expr(e.basis, env, rev)
            if not isinstance(bty, VTy) or bty.kind != "basis":
                raise CompileError(".measure applies to a basis", e.pos)
            if rev:
                raise CompileError("measurement inside a reversible kernel", e.pos)
            if not all(fully_spans(el) for el in basis_of(e.basis).elements):
                raise CompileError("measurement basis must fully span its space", e.pos)
            return FTy(bty.dim, VTy("bit", bty.dim), False)
        if isinstance(e, DiscardNode):
            if rev:
                raise CompileError("discard inside a reversible kernel", e.pos)
            return FTy(e.dim.value, VTy("none", 0), False)
        if isinstance(e, EmbedNode):
            c = self.program.classical(e.fn)
            if c is None:
                raise CompileError(f"unknown classical function '{e.fn}'", e.pos)
            if e.mode == "sign" and c.ret_type.dim.value != 1:
                raise CompileError(".sign requires one output bit", e.pos)
            w = c.embed_width(e.mode)
            return FTy(w, VTy("qubit", w), True)
        if isinstance(e, CondNode):
            if rev:
                raise CompileError("classical conditional inside a reversible kernel", e.pos)
            self._forbid_qubit_vars(e.then, env)
            self._forbid_qubit_vars(e.els, env)
            tt = self._expr(e.then, env, rev)
            ft = self._expr(e.flag, env, rev)
            et = self._expr(e.els, env, rev)
            if not isinstance(ft, VTy) or ft.kind != "bit" or ft.dim != 1:
                raise CompileError("conditional flag must be bit[1]", e.pos)
            if not isinstance(tt, FTy) or tt != et:
                raise CompileError(
                    f"conditional branches have different types: {tt} vs {et}",
                    e.pos,
                )
            return tt
        if isinstance(e, VarNode):
            if e.name in env:
                binding = env[e.name]
                if binding[0].kind == "qubit":
                    binding[1] += 1
                return binding[0]
            if e.name in self.fn_types:
                fty = self.fn_types[e.name]
                if rev and not fty.rev:
                    raise CompileError(
                        f"reversible kernel calls irreversible '{e.name}'",
                        e.pos,
                    )
                return fty
            raise CompileError(f"unknown name '{e.name}'", e.pos)
        if isinstance(e, (BitsNode, AngleNode, CallNode, RepeatNode)):
            raise CompileError(f"unexpected {type(e).__name__} after expansion", e.pos)
        raise CompileError(f"unhandled node {type(e).__name__}", getattr(e, "pos", Pos()))

    def _forbid_qubit_vars(self, e: ExprNode, env) -> ExprNode:
        """``e``, once no variable in it names a qubit."""
        if isinstance(e, VarNode) and e.name in env \
                and env[e.name][0].kind == "qubit":
            raise CompileError("conditional branches cannot capture qubits", e.pos)
        return map_children(e, lambda c: self._forbid_qubit_vars(c, env))


@dataclass
class TypedProgram:
    program: Program
    fn_types: dict[str, FTy]
    classicals: dict[str, ClassicalFn]


def typecheck(program: Program) -> TypedProgram:
    return TypeChecker(program).run()
