"""
Type checking for expanded programs: linear qubit usage, reversibility
restrictions, basis-literal validity, and span equivalence of translations.

Runs on the output of expansion, so every dimension is a ``Num`` holding
an int and captures have been baked away. Expansion has already rejected
what it can see from shapes alone (a missing or qubit-taking entry kernel,
an unknown name or classical function, a non-basis where a basis belongs,
a value where a function belongs, a ``.sign`` of more than one output bit),
so those are not checked again here. Types are ``qwir.QwTy``s, built by the
rules next to it that expansion and lowering call too.

Each angle is still an expression; the check folds it with
``expand.evaluate``, the one evaluator of dimensions and angles, so a bad
angle is reported here.
"""

from __future__ import annotations

from . import bases
from .ast_nodes import (
    BasisLitNode, BuiltinBasisNode, CondNode, DiscardNode, EmbedNode,
    ExprNode, MeasureNode, PipeNode, Pos, PredNode, Program, QpuFn,
    QubitLitNode, TensorNode, TransNode, AdjointNode, VarNode, ClassicalFn,
    CExpr, CVar, CLit, CBin, CNot, CIndex, CSlice, CReduce, CRepeat,
    map_children,
)
from .bases import Prim, check_span_equivalence, fully_spans, validate_literal
from .diagnostics import CompileError
from .expand import evaluate
from .qwir import (
    QwTy, discard_fn, embed_fn, measure_fn, pred_fn, qubit, rev_fn,
    signature, tensor_fn,
)
from .record import record


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
        self.fn_types = {q.name: signature(q) for q in program.qpus}
        self.classicals = {c.name: c for c in program.classicals}

    def run(self) -> "TypedProgram":
        for c in self.program.classicals:
            self._check_classical(c)
        for q in self.program.qpus:
            self._check_qpu(q)
        return TypedProgram(self.program, self.fn_types, self.classicals)

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
            p.name: [qubit(p.type.dim.value), 0] for p in q.params}
        params = list(env.items())
        scopes = []  # (let, its bindings) in order
        for let in q.lets:
            vty = self._expr(let.value, env, q.reversible)
            if vty.kind not in ("qubit", "bit"):
                raise CompileError("let binds qubit or bit values", let.pos)
            bound, total = [], 0
            for name, tnode in zip(let.names, let.types):
                if tnode is not None and tnode.kind != vty.kind:
                    raise CompileError(
                        f"let pattern kind {tnode.kind} does not match {vty}",
                        let.pos,
                    )
                ty = vty if tnode is None else QwTy(tnode.kind, tnode.dim.value)
                total += ty.dim
                bound.append((name, [ty, 0]))
            if total != vty.dim:
                raise CompileError(f"let pattern covers {total} of {vty.dim}", let.pos)
            env.update(bound)
            scopes.append((let, bound))
        ty = self._expr(q.body, env, q.reversible)
        for let, bound in reversed(scopes):
            self._check_used_once(bound, let.pos)
        want = self.fn_types[q.name].out
        if ty != want:
            raise CompileError(f"kernel {q.name} returns {ty}, declared {want}", q.pos)
        self._check_used_once(params, q.pos)

    def _check_used_once(self, bound, pos: Pos) -> None:
        for name, (ty, uses) in bound:
            if ty.kind == "qubit" and uses != 1:
                raise CompileError(
                    f"qubit '{name}' used {uses} times; must be used exactly once",
                    pos,
                )

    def _expr(self, e: ExprNode, env, rev: bool) -> QwTy:
        if isinstance(e, QubitLitNode):
            if e.phase is not None:
                evaluate(e.phase, {}, e.pos)
            return qubit(len(e.chars))
        if isinstance(e, BasisLitNode):
            # Every literal is validated here, as the walk reaches it.
            b = basis_of(e)
            msg = validate_literal(b.elements[0])
            if msg is not None:
                raise CompileError(msg, e.pos)
            return QwTy("basis", b.dim)
        if isinstance(e, BuiltinBasisNode):
            return QwTy("basis", e.dim.value)
        if isinstance(e, TensorNode):
            parts = [self._expr(p, env, rev) for p in e.parts]
            kinds = {t.kind for t in parts}
            if kinds == {"func"}:
                fty = tensor_fn(parts)
                if not fty.rev and any(t.fout_kind == "qubit" for t in parts):
                    raise CompileError(
                        "tensor operands must be all reversible or all "
                        "measuring/discarding", e.pos)
                return fty
            if len(kinds) != 1 or kinds & {"none", "func"}:
                raise CompileError("cannot tensor mixed kinds", e.pos)
            return QwTy(kinds.pop(), sum(t.dim for t in parts))
        if isinstance(e, TransNode):
            ti = self._expr(e.b_in, env, rev)
            to = self._expr(e.b_out, env, rev)
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
            return rev_fn(ti.dim)
        if isinstance(e, PipeNode):
            vty = self._expr(e.value, env, rev)
            for fn, bar in zip(e.fns, e.bars):
                fty = self._expr(fn, env, rev)
                if vty.kind != "qubit":
                    raise CompileError(f"pipe input must be qubits, found {vty}", bar)
                if rev and not fty.rev:
                    raise CompileError("irreversible operation inside a reversible kernel", bar)
                if vty.dim != fty.fin:
                    raise CompileError(
                        f"function takes qubit[{fty.fin}], found qubit[{vty.dim}]",
                        bar,
                    )
                vty = fty.out
            return vty
        if isinstance(e, AdjointNode):
            fty = self._expr(e.fn, env, rev)
            if not fty.rev or fty.fout_kind != "qubit":
                raise CompileError("~ takes a reversible qubit function", e.pos)
            return fty
        if isinstance(e, PredNode):
            bty = self._expr(e.basis, env, rev)
            fty = self._expr(e.fn, env, rev)
            if not fty.rev or fty.fout_kind != "qubit":
                raise CompileError("& takes a reversible qubit function", e.pos)
            return pred_fn(bty.dim, fty)
        if isinstance(e, MeasureNode):
            bty = self._expr(e.basis, env, rev)
            if rev:
                raise CompileError("measurement inside a reversible kernel", e.pos)
            if not all(fully_spans(el) for el in basis_of(e.basis).elements):
                raise CompileError("measurement basis must fully span its space", e.pos)
            return measure_fn(bty.dim)
        if isinstance(e, DiscardNode):
            if rev:
                raise CompileError("discard inside a reversible kernel", e.pos)
            return discard_fn(e.dim.value)
        if isinstance(e, EmbedNode):
            return embed_fn(self.classicals[e.fn], e.mode)
        if isinstance(e, CondNode):
            if rev:
                raise CompileError("classical conditional inside a reversible kernel", e.pos)
            self._forbid_qubit_vars(e.then, env)
            self._forbid_qubit_vars(e.els, env)
            tt = self._expr(e.then, env, rev)
            ft = self._expr(e.flag, env, rev)
            et = self._expr(e.els, env, rev)
            if ft != QwTy("bit", 1):
                raise CompileError("conditional flag must be bit[1]", e.pos)
            if tt != et:
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
                if fty.fin == 0:  # lowering would hand it a qubit[0]
                    raise CompileError(f"kernel '{e.name}' takes no qubits", e.pos)
                if rev and not fty.rev:
                    raise CompileError(
                        f"reversible kernel calls irreversible '{e.name}'",
                        e.pos,
                    )
                return fty
            raise CompileError(f"unknown name '{e.name}'", e.pos)
        raise CompileError(f"unhandled node {type(e).__name__}", getattr(e, "pos", Pos()))

    def _forbid_qubit_vars(self, e: ExprNode, env) -> ExprNode:
        """``e``, once no variable in it names a qubit."""
        if isinstance(e, VarNode) and e.name in env \
                and env[e.name][0].kind == "qubit":
            raise CompileError("conditional branches cannot capture qubits", e.pos)
        return map_children(e, lambda c: self._forbid_qubit_vars(c, env))


@record
class TypedProgram:
    program: Program
    fn_types: dict[str, QwTy]  # each kernel's func(...) type
    classicals: dict[str, ClassicalFn]


def typecheck(program: Program) -> TypedProgram:
    return TypeChecker(program).run()
