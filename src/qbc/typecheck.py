"""
Type checking for expanded programs: linear qubit usage, reversibility
restrictions, basis-literal validity, and span equivalence of translations.

Runs on the output of expansion, so every dimension is a concrete integer
and captures have been baked away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from . import bases
from .ast_nodes import (
    AngleBin, AngleLit, AngleNeg, AnglePi, AngleExpr,
    BasisLitNode, BuiltinBasisNode, CondNode, DiscardNode, EmbedNode,
    ExprNode, MeasureNode, PipeNode, Pos, PredNode, Program, QpuFn,
    QubitLitNode, RepeatNode, TensorNode, TransNode, AdjointNode, VarNode,
    CallNode, BitsNode, AngleNode, ClassicalFn, CExpr, CVar, CLit, CBin,
    CNot, CIndex, CSlice, CReduce, CRepeat, map_children,
)
from .bases import Prim, check_span_equivalence, fully_spans, validate_literal
from .diagnostics import err


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


def fold_angle(a: AngleExpr, pos: Pos, file: str) -> float:
    if isinstance(a, AngleLit):
        return a.value
    if isinstance(a, AnglePi):
        return math.pi
    if isinstance(a, AngleNeg):
        return -fold_angle(a.operand, pos, file)
    if isinstance(a, AngleBin):
        x = fold_angle(a.left, pos, file)
        y = fold_angle(a.right, pos, file)
        if a.op == "/" and y == 0:
            raise err("division by zero in angle", pos, file)
        return {"+": x + y, "-": x - y, "*": x * y, "/": x / y}[a.op]
    raise err("angle is not constant", pos, file)


def basis_of(e: ExprNode, file: str) -> bases.Basis:
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
                    phase = fold_angle(v.phase, v.pos, file)
                try:
                    vecs.append(bases.vector_from_chars(v.chars, phase))
                except ValueError as ex:
                    raise err(str(ex), v.pos, file)
            elements.append(bases.BasisLiteral(tuple(vecs)))
            return
        raise err("expected a basis expression", getattr(node, "pos", Pos()), file)

    walk(e)
    return bases.Basis(tuple(elements))


class TypeChecker:
    def __init__(self, program: Program, file: str = "<input>"):
        self.program = program
        self.file = file
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
            raise err(f"missing entry kernel '{self.program.entry}'", Pos(1, 1), self.file)
        if self.fn_types[entry.name].in_dim != 0:
            raise err("entry kernel must take no qubits", entry.pos, self.file)
        return TypedProgram(self.program, self.fn_types, self.classicals, self.file)

    def _signature(self, q: QpuFn) -> FTy:
        in_dim = 0
        for p in q.params:
            if p.type.kind == "qubit":
                in_dim = p.type.dim.value
            else:
                raise err(
                    f"unexpanded capture parameter '{p.name}'", p.pos, self.file
                )
        out = VTy(q.ret_type.kind, q.ret_type.dim.value)
        return FTy(in_dim, out, q.reversible)

    # -- classical functions --------------------------------------------------

    def _check_classical(self, c: ClassicalFn) -> None:
        env = {p.name: p.type.dim.value for p in c.params}
        width = self._cwidth(c.body, env)
        want = c.ret_type.dim.value
        if width != want:
            raise err(
                f"classical function {c.name} returns bit[{width}], "
                f"declared bit[{want}]",
                c.pos, self.file,
            )

    def _cwidth(self, e: CExpr, env: dict[str, int]) -> int:
        if isinstance(e, CVar):
            if e.name not in env:
                raise err(f"unknown name '{e.name}'", e.pos, self.file)
            return env[e.name]
        if isinstance(e, CLit):
            return len(e.bits)
        if isinstance(e, CBin):
            lw = self._cwidth(e.left, env)
            rw = self._cwidth(e.right, env)
            if lw != rw:
                raise err(f"operand widths differ: {lw} vs {rw}", e.pos, self.file)
            return lw
        if isinstance(e, CNot):
            return self._cwidth(e.operand, env)
        if isinstance(e, CIndex):
            w = self._cwidth(e.operand, env)
            if not 0 <= e.index.value < w:
                raise err(f"bit index {e.index.value} out of range", e.pos, self.file)
            return 1
        if isinstance(e, CSlice):
            w = self._cwidth(e.operand, env)
            lo, hi = e.lo.value, e.hi.value
            if not (0 <= lo < hi <= w):
                raise err(f"bad slice [{lo}:{hi}] of bit[{w}]", e.pos, self.file)
            return hi - lo
        if isinstance(e, CReduce):
            self._cwidth(e.operand, env)
            return 1
        if isinstance(e, CRepeat):
            w = self._cwidth(e.operand, env)
            if w != 1:
                raise err("repeat() takes a single bit", e.pos, self.file)
            return e.count.value
        raise err("bad classical expression", getattr(e, "pos", Pos()), self.file)

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
                raise err("let binds qubit or bit values", let.pos, self.file)
            bound, total = [], 0
            for name, tnode in zip(let.names, let.types):
                if tnode is not None and tnode.kind != vty.kind:
                    raise err(
                        f"let pattern kind {tnode.kind} does not match {vty}",
                        let.pos, self.file,
                    )
                ty = vty if tnode is None else VTy(tnode.kind, tnode.dim.value)
                total += ty.dim
                bound.append((name, [ty, 0]))
            if total != vty.dim:
                raise err(
                    f"let pattern covers {total} of {vty.dim}", let.pos, self.file
                )
            env.update(bound)
            scopes.append((let, bound))
        ty = self._expr(q.body, env, q.reversible)
        for let, bound in reversed(scopes):
            self._check_used_once(bound, let.pos)
        want = VTy(q.ret_type.kind, q.ret_type.dim.value)
        if not isinstance(ty, VTy) or ty != want:
            raise err(
                f"kernel {q.name} returns {ty}, declared {want}", q.pos, self.file
            )
        self._check_used_once(params, q.pos)

    def _check_used_once(self, bound, pos: Pos) -> None:
        for name, (ty, uses) in bound:
            if ty.kind == "qubit" and uses != 1:
                raise err(
                    f"qubit '{name}' used {uses} times; must be used exactly once",
                    pos, self.file,
                )

    def _expr(self, e: ExprNode, env, rev: bool) -> Ty:
        if isinstance(e, QubitLitNode):
            if e.phase is not None:
                fold_angle(e.phase, e.pos, self.file)
            return VTy("qubit", len(e.chars))
        if isinstance(e, BasisLitNode):
            # Every literal is validated here, as the walk reaches it.
            b = basis_of(e, self.file)
            msg = validate_literal(b.elements[0])
            if msg is not None:
                raise err(msg, e.pos, self.file)
            return VTy("basis", b.dim)
        if isinstance(e, BuiltinBasisNode):
            return VTy("basis", e.dim.value)
        if isinstance(e, TensorNode):
            parts = [self._expr(p, env, rev) for p in e.parts]
            if all(isinstance(t, VTy) for t in parts):
                kinds = {t.kind for t in parts}
                if len(kinds) != 1 or "none" in kinds:
                    raise err("cannot tensor mixed kinds", e.pos, self.file)
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
                raise err(
                    "tensor operands must be all reversible or all measuring/discarding",
                    e.pos, self.file,
                )
            raise err("cannot tensor values with functions", e.pos, self.file)
        if isinstance(e, TransNode):
            ti = self._expr(e.b_in, env, rev)
            to = self._expr(e.b_out, env, rev)
            if not (isinstance(ti, VTy) and ti.kind == "basis") or not (
                isinstance(to, VTy) and to.kind == "basis"
            ):
                raise err("translation operands must be bases", e.pos, self.file)
            if ti.dim != to.dim:
                raise err(
                    f"translation dimensions differ: {ti.dim} vs {to.dim}",
                    e.pos, self.file,
                )
            mismatch = check_span_equivalence(
                basis_of(e.b_in, self.file), basis_of(e.b_out, self.file))
            if mismatch is not None:
                raise err(
                    f"translation sides span different spaces ({mismatch})",
                    e.pos, self.file,
                )
            return FTy(ti.dim, VTy("qubit", ti.dim), True)
        if isinstance(e, PipeNode):
            vty = self._expr(e.value, env, rev)
            for fn, bar in zip(e.fns, e.bars):
                fty = self._expr(fn, env, rev)
                if not isinstance(vty, VTy) or vty.kind != "qubit":
                    raise err(f"pipe input must be qubits, found {vty}", bar, self.file)
                if not isinstance(fty, FTy):
                    raise err(f"pipe target must be a function, found {fty}", bar, self.file)
                if rev and not fty.rev:
                    raise err(
                        "irreversible operation inside a reversible kernel", bar, self.file
                    )
                if vty.dim != fty.in_dim:
                    raise err(
                        f"function takes qubit[{fty.in_dim}], found qubit[{vty.dim}]",
                        bar, self.file,
                    )
                vty = fty.out
            return vty
        if isinstance(e, AdjointNode):
            fty = self._expr(e.fn, env, rev)
            if not isinstance(fty, FTy) or not fty.rev or fty.out.kind != "qubit":
                raise err("~ takes a reversible qubit function", e.pos, self.file)
            return fty
        if isinstance(e, PredNode):
            bty = self._expr(e.basis, env, rev)
            fty = self._expr(e.fn, env, rev)
            if not isinstance(bty, VTy) or bty.kind != "basis":
                raise err("predicate must be a basis", e.pos, self.file)
            if not isinstance(fty, FTy) or not fty.rev or fty.out.kind != "qubit":
                raise err("& takes a reversible qubit function", e.pos, self.file)
            n = bty.dim + fty.in_dim
            return FTy(n, VTy("qubit", n), True)
        if isinstance(e, MeasureNode):
            bty = self._expr(e.basis, env, rev)
            if not isinstance(bty, VTy) or bty.kind != "basis":
                raise err(".measure applies to a basis", e.pos, self.file)
            if rev:
                raise err("measurement inside a reversible kernel", e.pos, self.file)
            if not all(fully_spans(el) for el in basis_of(e.basis, self.file).elements):
                raise err(
                    "measurement basis must fully span its space", e.pos, self.file
                )
            return FTy(bty.dim, VTy("bit", bty.dim), False)
        if isinstance(e, DiscardNode):
            if rev:
                raise err("discard inside a reversible kernel", e.pos, self.file)
            return FTy(e.dim.value, VTy("none", 0), False)
        if isinstance(e, EmbedNode):
            c = self.program.classical(e.fn)
            if c is None:
                raise err(f"unknown classical function '{e.fn}'", e.pos, self.file)
            if e.mode == "sign" and c.ret_type.dim.value != 1:
                raise err(".sign requires one output bit", e.pos, self.file)
            w = c.embed_width(e.mode)
            return FTy(w, VTy("qubit", w), True)
        if isinstance(e, CondNode):
            if rev:
                raise err(
                    "classical conditional inside a reversible kernel", e.pos, self.file
                )
            self._forbid_qubit_vars(e.then, env)
            self._forbid_qubit_vars(e.els, env)
            tt = self._expr(e.then, env, rev)
            ft = self._expr(e.flag, env, rev)
            et = self._expr(e.els, env, rev)
            if not isinstance(ft, VTy) or ft.kind != "bit" or ft.dim != 1:
                raise err("conditional flag must be bit[1]", e.pos, self.file)
            if not isinstance(tt, FTy) or tt != et:
                raise err(
                    f"conditional branches have different types: {tt} vs {et}",
                    e.pos, self.file,
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
                    raise err(
                        f"reversible kernel calls irreversible '{e.name}'",
                        e.pos, self.file,
                    )
                return fty
            raise err(f"unknown name '{e.name}'", e.pos, self.file)
        if isinstance(e, (BitsNode, AngleNode, CallNode, RepeatNode)):
            raise err(
                f"unexpected {type(e).__name__} after expansion", e.pos, self.file
            )
        raise err(f"unhandled node {type(e).__name__}", getattr(e, "pos", Pos()), self.file)

    def _forbid_qubit_vars(self, e: ExprNode, env) -> ExprNode:
        """``e``, once no variable in it names a qubit."""
        if isinstance(e, VarNode) and e.name in env \
                and env[e.name][0].kind == "qubit":
            raise err(
                "conditional branches cannot capture qubits", e.pos, self.file
            )
        return map_children(e, lambda c: self._forbid_qubit_vars(c, env))


@dataclass
class TypedProgram:
    program: Program
    fn_types: dict[str, FTy]
    classicals: dict[str, ClassicalFn]
    file: str


def typecheck(program: Program, file: str = "<input>") -> TypedProgram:
    return TypeChecker(program, file).run()
