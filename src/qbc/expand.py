"""
Expansion, which types and checks the program as it goes: resolve dimension
variables, unroll repeats into tensor products, bake captured bit/angle
constants into monomorphic function instances, and apply Qwerty's typing
rules at each node on the way. Every tensor it builds is flat
(``_flat_tensor``), so lowering makes one ``qbpack``/``qbunpack`` per tensor,
not one per nesting level; flattening cannot change a type.

Dimension variables are bound from, in order: explicit [[...]] bindings, -D
command-line bindings (entry only), declared defaults, and inference from
capture lengths or the piped-in register width. A name in a parameter or
result type must be one of its function's declared dimension variables.

One walk per kernel body and per classical body types each expression with
``qwir.QwTy`` and the rules next to it, and checks each node where it has
the type: the shapes (value, basis or function, and the width piped into a
stage), linear use of qubits, no measurement, discard or irreversible call
inside a ``rev`` kernel, no conditional in another's branch, valid basis
literals, span-equivalent translations (``bases.align`` pairs them up), and
the widths of classical expressions. A walk of the instance graph then
finds a recursive call, and a branch that measures through a kernel.
``expand`` returns the expanded program, its instances listed callee-first
in the order that walk leaves them and the entry last, with each kernel's
type (``TypedProgram``). Capture arguments have no type: ``BitsNode`` and
``AngleNode`` tell them apart.

Kernels and classical functions are found by name in one dict each, built
once per program; a name declared twice is a diagnostic there. A bare
kernel name in function position binds no dimension and no capture, so
the instance it calls depends only on the kernel and the width piped into
it: the first such call binds and instantiates, and each later one looks
the instance up, one dict lookup per repeated call site.

Dimensions and angles are one arithmetic family, with one evaluator
(``evaluate``, which folds every dimension and checks every angle here, and
folds every angle for lowering) and one substitution (``substitute``, which
puts captured angles in place of their names). Expanded dimensions are
``Num``s holding ints; expanded angles stay expressions, which ``--emit
ast`` prints.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from . import bases
from .ast_nodes import (
    AngleNode, Arith, BasisLitNode, Bin, BitsNode, BuiltinBasisNode,
    CallNode, CBin, CExpr, CIndex, ClassicalFn, CLit, CNot, CondNode,
    CReduce, CSlice, CVar, DiscardNode, EmbedNode, ExprNode, LetNode,
    MeasureNode, Name, Neg, Num, ParamNode, Pi, PipeNode, Pos, PredNode,
    Program, QpuFn, QubitLitNode, RepeatNode, TensorNode, TransNode, TypeNode,
    AdjointNode, VarNode, VecNode, map_children,
)
from .bases import Prim, align, fully_spans, validate_literal
from .diagnostics import CompileError
from .qwir import (
    QwTy, discard_fn, embed_fn, measure_fn, pred_fn, qubit, rev_fn,
    signature, tensor_fn,
)
from .record import record, replace


class _Unbound(Exception):
    def __init__(self, name):
        self.name = name


def evaluate(a: Arith, env: dict[str, int],
             pos: Optional[Pos] = None) -> Union[int, float]:
    """The value of ``a`` with its names read from ``env``; a name that
    ``env`` lacks raises ``_Unbound``. The operands choose the division:
    exact integer division for two ints, as in a dimension, and float
    division otherwise, as in an angle, whose division by zero is reported
    at ``pos``."""
    if isinstance(a, Num):
        return a.value
    if isinstance(a, Pi):
        return math.pi
    if isinstance(a, Name):
        if a.name not in env:
            raise _Unbound(a.name)
        return env[a.name]
    if isinstance(a, Neg):
        return -evaluate(a.operand, env, pos)
    x, y = evaluate(a.left, env, pos), evaluate(a.right, env, pos)
    if a.op == "+":
        return x + y
    if a.op == "-":
        return x - y
    if a.op == "*":
        return x * y
    if not (isinstance(x, int) and isinstance(y, int)):
        if y == 0:
            raise CompileError("division by zero in angle", pos)
        return x / y
    if y == 0 or x % y != 0:
        raise CompileError(f"dimension {x}/{y} is not an integer", a.pos)
    return x // y


def substitute(a: Optional[Arith],
               captures: dict[str, ExprNode]) -> Optional[Arith]:
    """``a`` (an angle or None) with each name replaced by the angle
    captured under it."""
    if isinstance(a, Name):
        if a.name in captures and isinstance(captures[a.name], AngleNode):
            return captures[a.name].angle
        raise CompileError(f"unknown angle '{a.name}'", a.pos)
    if isinstance(a, Neg):
        return Neg(substitute(a.operand, captures), pos=a.pos)
    if isinstance(a, Bin):
        return Bin(a.op, substitute(a.left, captures),
                   substitute(a.right, captures), pos=a.pos)
    return a


def _dimension(d: Arith, dims: dict[str, int], pos: Pos) -> int:
    """The value of dimension ``d`` in ``dims``, which must bind its names."""
    try:
        return evaluate(d, dims)
    except _Unbound as u:
        raise CompileError(f"dimension variable {u.name} is unbound", pos)


def _solve_dim(d: Arith, target: int, env: dict[str, int], pos: Pos) -> None:
    """Unify evaluate(d) = target, binding at most one new variable
    (affine)."""
    try:
        got = evaluate(d, env)
        if got != target:
            raise CompileError(f"dimension mismatch: expected {target}, found {got}", pos)
        return
    except _Unbound as u:
        var = u.name
    probe1 = evaluate(d, {**env, var: 1})
    probe2 = evaluate(d, {**env, var: 2})
    slope = probe2 - probe1
    intercept = probe1 - slope
    if slope == 0 or (target - intercept) % slope != 0:
        raise CompileError(f"cannot solve dimension for {var}", pos)
    value = (target - intercept) // slope
    if value < 1:
        raise CompileError(f"inferred non-positive dimension {var} = {value}", pos)
    env[var] = value


def _check_declared(fn: Union[QpuFn, ClassicalFn]) -> None:
    """Every name in ``fn``'s parameter and result types, leftmost first,
    is one of its dimension variables."""
    todo = [fn.ret_type.dim, *(p.type.dim for p in reversed(fn.params))]
    while todo:
        a = todo.pop()
        if isinstance(a, Bin):
            todo += (a.right, a.left)
        elif isinstance(a, Name) and a.name not in fn.dim_vars:
            raise CompileError(f"undeclared dimension variable {a.name}", a.pos)


def _by_name(fns, what: str) -> dict:
    """``fns`` (kernels or classical functions) by name; a name declared
    twice is a diagnostic at its second declaration."""
    out = {}
    for fn in fns:
        if fn.name in out:
            raise CompileError(f"duplicate {what} '{fn.name}'", fn.pos)
        out[fn.name] = fn
    return out


def _tensor(tys: list[QwTy], pos: Pos) -> QwTy:
    """The type of a tensor whose parts are all reversible qubit functions
    or all measuring/discarding ones, all bases, or all qubits or all
    bits."""
    kinds = {t.kind for t in tys}
    if kinds == {"func"}:
        fty = tensor_fn(tys)
        if not fty.rev and any(t.fout_kind == "qubit" for t in tys):
            raise CompileError("tensor operands must be all reversible or all "
                               "measuring/discarding", pos)
        return fty
    if kinds & {"basis", "func"} and kinds != {"basis"}:
        raise CompileError("tensor operands must all be values, bases, or functions", pos)
    if len(kinds) != 1 or "none" in kinds:
        raise CompileError("cannot tensor mixed kinds", pos)
    return QwTy(tys[0].kind, sum(t.dim for t in tys))


def _flat_tensor(parts, pos: Pos) -> TensorNode:
    """The tensor of expanded ``parts``, with the parts of each part that is
    a tensor spliced in. Every tensor expansion builds comes from here, so
    each is flat, and ``a + (b + c)`` is the single ``a + b + c``."""
    flat: list[ExprNode] = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, TensorNode) else (p,))
    return TensorNode(tuple(flat), pos=pos)


def _check_used_once(bound, pos: Pos) -> None:
    for name, (ty, uses) in bound:
        if ty.kind == "qubit" and uses != 1:
            raise CompileError(
                f"qubit '{name}' used {uses} times; must be used exactly once",
                pos,
            )


def basis_of(e: ExprNode) -> bases.Basis:
    """Convert an expanded basis expression, a builtin, a literal or a flat
    tensor of them, into a canon-form Basis value, with its phases folded."""
    elements: list[bases.BasisElement] = []
    for node in e.parts if isinstance(e, TensorNode) else (e,):
        if isinstance(node, BuiltinBasisNode):
            elements.append(bases.BuiltinBasis(Prim(node.prim), node.dim.value))
            continue
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
    return bases.Basis(tuple(elements))


@record
class TypedProgram:
    program: Program
    fn_types: dict[str, QwTy]  # each kernel's func(...) type
    classicals: dict[str, ClassicalFn]


class Expander:
    def __init__(self, program: Program, bindings: dict[str, int]):
        self.qpus = _by_name(program.qpus, "kernel")
        self.classicals = _by_name(program.classicals, "classical function")
        self.bindings = dict(bindings)
        self.qpu_instances: dict[tuple, tuple[str, QwTy]] = {}
        # (kernel, piped width) -> the instance a bare kernel name calls
        self.named_calls: dict[tuple[str, Optional[int]], tuple[str, QwTy]] = {}
        self.classical_instances: dict[tuple, ClassicalFn] = {}
        # (instance head, kernel, dimensions, captures) of each instance
        # whose body ``run`` has still to expand.
        self.bodies: list[tuple[QpuFn, QpuFn, dict, dict]] = []
        self.out_qpus: dict[str, QpuFn] = {}
        self.out_classicals: list[ClassicalFn] = []
        self.used_names: set[str] = set()
        # The body being expanded: its dimensions and captures, whether its
        # kernel is reversible, and each name's [type, uses] of its latest
        # binding, so a let that rebinds a name starts a count of its own.
        self.dims: dict[str, int] = {}
        self.captures: dict[str, ExprNode] = {}
        self.rev = False
        self.env: dict[str, list] = {}
        # Whether the body being expanded measures or discards, and the
        # instances it names, each with where; then the same per expanded
        # instance, and the instances each conditional's branches name, with
        # its position, which ``run`` checks once every body is expanded.
        self.measured = False
        self.named: list[tuple[str, Pos]] = []
        self.expanded: dict[str, tuple[bool, list[tuple[str, Pos]]]] = {}
        self.branches: list[tuple[list[tuple[str, Pos]], Pos]] = []
        self.in_branch = False  # while a conditional's branch is expanded

    # -- entry ---------------------------------------------------------------

    def run(self) -> TypedProgram:
        main = self.qpus.get("main")
        if main is None:
            raise CompileError("missing entry kernel 'main'", Pos(1, 1))
        for fn in (*self.qpus.values(), *self.classicals.values()):
            _check_declared(fn)
        dim_env: dict[str, int] = {}
        for name, default in zip(main.dim_vars, main.dim_defaults):
            if name in self.bindings:
                dim_env[name] = self.bindings[name]
            elif default is not None:
                dim_env[name] = default
        unknown = set(self.bindings) - set(main.dim_vars)
        if unknown:
            raise CompileError(
                "unknown dimension variable(s) in -D: " + ", ".join(sorted(unknown)),
                main.pos,
            )
        captures: dict[str, ExprNode] = {}
        for p in main.params:
            if p.type.kind == "qubit":
                raise CompileError("entry kernel 'main' cannot take qubits", p.pos)
            if p.default is None:
                raise CompileError(f"entry capture '{p.name}' needs a default value", p.pos)
            if isinstance(p.default, BitsNode):
                _solve_dim(p.type.dim, len(p.default.bits), dim_env, p.pos)
            captures[p.name] = p.default
        if main.ret_type.kind != "bit":
            raise CompileError("entry kernel 'main' must return bits", main.ret_type.pos)
        for name in main.dim_vars:
            if name not in dim_env:
                raise CompileError(f"dimension variable {name} is unbound; pass -D {name}=...", main.pos)
        entry, _ = self._instantiate_qpu(main, dim_env, captures, keep_name="main")
        # Expanding a body can queue more instances.
        while self.bodies:
            self._expand_body(*self.bodies.pop())
        order = self._check_calls(entry)
        program = Program(tuple(self.out_qpus[n] for n in order),
                          tuple(self.out_classicals), entry=entry)
        return TypedProgram(program, dict(self.qpu_instances.values()),
                            {c.name: c for c in self.out_classicals})

    def _fresh_name(self, base: str, dim_env: dict[str, int]) -> str:
        name = base
        if dim_env:
            name += "__" + "_".join(f"{k}{v}" for k, v in sorted(dim_env.items()))
        candidate = name
        k = 2
        while candidate in self.used_names:
            candidate = f"{name}_{k}"
            k += 1
        self.used_names.add(candidate)
        return candidate

    def _capture_key(self, captures: dict[str, ExprNode]):
        out = []
        for k in sorted(captures):
            v = captures[k]
            if isinstance(v, BitsNode):
                out.append((k, "bits", v.bits))
            else:
                assert isinstance(v, AngleNode)
                try:
                    out.append((k, "angle", evaluate(v.angle, {}, v.pos)))
                except _Unbound:  # a name in an entry kernel's default
                    raise CompileError("angle is not constant", v.pos)
        return tuple(out)

    # -- qpu instantiation -----------------------------------------------------

    def _instantiate_qpu(
        self,
        fn: QpuFn,
        dim_env: dict[str, int],
        captures: dict[str, ExprNode],
        keep_name: Optional[str] = None,
    ) -> tuple[str, QwTy]:
        """The name and type of ``fn``'s instance at ``dim_env`` with
        ``captures`` baked in. The first time it is asked for, its body is
        queued for ``run`` to expand, so a chain of calls costs no stack
        frame per kernel, and a recursive call finds the name and type.
        Every bit or angle parameter is a capture, so the instance keeps
        only its qubit parameter and no angle outlives expansion."""
        key = (fn.name, tuple(sorted(dim_env.items())), self._capture_key(captures))
        if key in self.qpu_instances:
            return self.qpu_instances[key]
        name = keep_name or self._fresh_name(fn.name, dim_env)
        params = tuple(ParamNode(p.name, self._subst_type(p.type, dim_env),
                                 None, pos=p.pos)
                       for p in fn.params if p.type.kind == "qubit")
        if len(params) > 1:
            raise CompileError(f"kernel {fn.name} has more than one qubit parameter", fn.pos)
        head = QpuFn(fn.name, (), (), params, self._subst_type(fn.ret_type, dim_env),
                     fn.reversible, (), fn.body, pos=fn.pos)
        self.qpu_instances[key] = name, signature(head)
        self.bodies.append((replace(head, name=name), fn, dim_env, captures))
        return self.qpu_instances[key]

    def _expand_body(self, head: QpuFn, fn: QpuFn, dim_env: dict[str, int],
                     captures: dict[str, ExprNode]) -> None:
        """Expand the lets and body of ``fn`` into its instance ``head``,
        then check that each qubit binding is used once, the latest let's
        first and the parameter's last, and that the body returns what
        ``head`` declares."""
        self.dims, self.captures, self.rev = dim_env, captures, fn.reversible
        self.measured, self.named = False, []
        self.env = {p.name: [qubit(p.type.dim.value), 0] for p in head.params}
        params = list(self.env.items())
        lets = [self._expand_let(let) for let in fn.lets]
        body, ty = self._expand_expr(fn.body)
        for let, bound in reversed(lets):
            _check_used_once(bound, let.pos)
        want = QwTy(head.ret_type.kind, head.ret_type.dim.value)
        if ty != want:
            raise CompileError(f"kernel {head.name} returns {ty}, declared {want}",
                               head.pos)
        _check_used_once(params, head.pos)
        self.expanded[head.name] = self.measured, self.named
        self.out_qpus[head.name] = replace(
            head, lets=tuple(let for let, _ in lets), body=body)

    def _subst_type(self, t: TypeNode, dim_env: dict[str, int]) -> TypeNode:
        dim = _dimension(t.dim, dim_env, t.pos)
        if dim < 1:
            raise CompileError(f"non-positive dimension {dim}", t.pos)
        return TypeNode(t.kind, Num(dim), pos=t.pos)

    def _expand_let(self, let: LetNode) -> tuple[LetNode, list]:
        """Expand ``let``'s value, then bind its names; returns the
        expanded let and its (name, [type, uses]) bindings."""
        value, vty = self._expand_expr(let.value)
        split = len(let.names) > 1
        types = []
        for ty in let.types:
            if ty is None and split:
                raise CompileError("destructuring let requires types", let.pos)
            types.append(None if ty is None else self._subst_type(ty, self.dims))
        widths = [vty.dim if ty is None else ty.dim.value for ty in types]
        if sum(widths) != vty.dim:
            raise CompileError(
                f"destructuring splits {sum(widths)} of {vty.dim} qubits/bits"
                if split else "let type does not match value", let.pos,
            )
        if vty.kind not in ("qubit", "bit"):
            raise CompileError("let binds qubit or bit values", let.pos)
        bound = []
        for name, ty, w in zip(let.names, types, widths):
            if ty is not None and ty.kind != vty.kind:
                raise CompileError(
                    f"let pattern kind {ty.kind} does not match {vty}", let.pos)
            bound.append((name, [QwTy(vty.kind, w), 0]))
        self.env.update(bound)
        return LetNode(let.names, tuple(types), value, pos=let.pos), bound

    # -- expression expansion ---------------------------------------------------

    def _expand_expr(self, e):
        """Return (expanded expr, its type), once ``e`` is checked."""
        if isinstance(e, QubitLitNode):
            phase = substitute(e.phase, self.captures)
            if phase is not None:
                evaluate(phase, {}, e.pos)
            return QubitLitNode(e.chars, phase, pos=e.pos), qubit(len(e.chars))
        if isinstance(e, BasisLitNode):
            vecs = []
            for v in e.vectors:
                chars = v.chars
                if v.repeat is not None:
                    chars = chars * _dimension(v.repeat, self.dims, v.pos)
                phase = substitute(v.phase, self.captures)
                vecs.append(VecNode(chars, None, phase, pos=v.pos))
            lit = BasisLitNode(tuple(vecs), pos=e.pos)
            b = basis_of(lit)
            msg = validate_literal(b.elements[0])
            if msg is not None:
                raise CompileError(msg, e.pos)
            return lit, QwTy("basis", b.dim)
        if isinstance(e, BuiltinBasisNode):
            dim = _dimension(e.dim, self.dims, e.pos)
            if dim < 1:
                raise CompileError("basis dimension must be positive", e.pos)
            return BuiltinBasisNode(e.prim, Num(dim), pos=e.pos), QwTy("basis", dim)
        if isinstance(e, TensorNode):
            parts, tys = [], []
            for p in e.parts:
                part, ty = self._expand_expr(p)
                parts.append(part)
                tys.append(ty)
            return _flat_tensor(parts, e.pos), _tensor(tys, e.pos)
        if isinstance(e, RepeatNode):
            n = _dimension(e.count, self.dims, e.pos)
            if n < 1:
                raise CompileError("repeat count must be positive", e.pos)
            if n == 1:
                return self._expand_expr(e.operand)
            # Each of the n copies uses the qubits that the operand uses.
            before = [(b, b[1]) for b in self.env.values()]
            inner, ty = self._expand_expr(e.operand)
            for b, uses in before:
                b[1] = uses + (b[1] - uses) * n
            return _flat_tensor((inner,) * n, e.pos), _tensor([ty] * n, e.pos)
        if isinstance(e, TransNode):
            b_in, t1 = self._expand_expr(e.b_in)
            b_out, t2 = self._expand_expr(e.b_out)
            if t1.kind != "basis" or t2.kind != "basis":
                raise CompileError("translation operands must be bases", e.pos)
            if t1.dim != t2.dim:
                raise CompileError(
                    f"translation dimensions differ: {t1.dim} vs {t2.dim}", e.pos)
            try:
                align(basis_of(b_in), basis_of(b_out))
            except CompileError as err:
                raise CompileError(err.message, e.pos) from None
            return TransNode(b_in, b_out, pos=e.pos), rev_fn(t1.dim)
        if isinstance(e, PipeNode):
            value, vty = self._expand_expr(e.value)
            fns = []
            for fn, bar in zip(e.fns, e.bars):
                # The width piped in is the hint for inferring the stage's
                # dimensions; a piped function hints its result width.
                fn, fty = self._resolve_fn(fn, hint=vty.fout_dim or vty.dim)
                if vty.kind != "qubit":
                    raise CompileError(f"pipe input must be qubits, found {vty}", bar)
                if self.rev and not fty.rev:
                    raise CompileError(
                        "irreversible operation inside a reversible kernel", bar)
                if vty.dim != fty.fin:
                    raise CompileError(
                        f"function takes qubit[{fty.fin}], found qubit[{vty.dim}]",
                        bar)
                fns.append(fn)
                vty = fty.out
            return PipeNode(value, tuple(fns), e.bars), vty
        if isinstance(e, AdjointNode):
            fn, fty = self._resolve_fn(e.fn, hint=None)
            if not fty.rev or fty.fout_kind != "qubit":
                raise CompileError("~ takes a reversible qubit function", e.pos)
            return AdjointNode(fn, pos=e.pos), fty
        if isinstance(e, PredNode):
            b, bty = self._expand_expr(e.basis)
            if bty.kind != "basis":
                raise CompileError("predicate must be a basis", e.pos)
            fn, fty = self._resolve_fn(e.fn, hint=None)
            if not fty.rev or fty.fout_kind != "qubit":
                raise CompileError("& takes a reversible qubit function", e.pos)
            return PredNode(b, fn, pos=e.pos), pred_fn(bty.dim, fty)
        if isinstance(e, MeasureNode):
            b, bty = self._expand_expr(e.basis)
            if bty.kind != "basis":
                raise CompileError(".measure applies to a basis", e.pos)
            if self.rev:
                raise CompileError("measurement inside a reversible kernel", e.pos)
            if not all(fully_spans(el) for el in basis_of(b).elements):
                raise CompileError("measurement basis must fully span its space", e.pos)
            self.measured = True
            return MeasureNode(b, pos=e.pos), measure_fn(bty.dim)
        if isinstance(e, DiscardNode):
            dim = _dimension(e.dim, self.dims, e.pos)
            if self.rev:
                raise CompileError("discard inside a reversible kernel", e.pos)
            self.measured = True
            return DiscardNode(Num(dim), pos=e.pos), discard_fn(dim)
        if isinstance(e, EmbedNode):
            return self._resolve_embed(e, hint=None)
        if isinstance(e, CondNode):
            if self.rev:
                raise CompileError("classical conditional inside a reversible kernel", e.pos)
            # A gate takes one condition. This is the one way to nest, since
            # a kernel's flag is measured in it, which no branch may do.
            if self.in_branch:
                raise CompileError("nested conditionals are not supported", e.pos)
            # Before the branches are expanded, so a branch that captures a
            # qubit is reported as that, not as a fault expanding it finds.
            self._forbid_qubit_vars(e.then)
            self._forbid_qubit_vars(e.els)
            (then, tty), branch_names = self._resolve_branch(e.then, None)
            flag, fty = self._expand_expr(e.flag)
            (els, ety), els_names = self._resolve_branch(e.els, tty.fin)
            branch_names += els_names
            if fty != QwTy("bit", 1):
                raise CompileError("conditional flag must be bit[1]", e.pos)
            if tty != ety:
                raise CompileError(
                    f"conditional branches have different types: {tty} vs {ety}",
                    e.pos,
                )
            # Bits come only from measurement, so a branch that returns bits
            # or nothing measures or discards.
            if tty.fout_kind != "qubit":
                raise CompileError("conditional branches cannot measure or discard", e.pos)
            # A kernel that returns qubits may still measure inside.
            self.branches.append((branch_names, e.pos))
            return CondNode(then, flag, els, pos=e.pos), tty
        if isinstance(e, VarNode):
            if e.name in self.captures:
                raise CompileError(
                    f"capture '{e.name}' cannot be used as a value", e.pos)
            binding = self.env.get(e.name)
            if binding is not None:
                if binding[0].kind == "qubit":
                    binding[1] += 1
                return e, binding[0]
            if e.name in self.qpus:
                return self._resolve_fn(e, hint=None)
            raise CompileError(f"unknown name '{e.name}'", e.pos)
        if isinstance(e, CallNode):
            return self._resolve_fn(e, hint=None)
        raise CompileError(f"unexpected node {type(e).__name__}", getattr(e, "pos", Pos()))

    def _resolve_branch(self, e, hint: Optional[int]):
        """``_resolve_fn`` of a conditional's branch ``e``, and the
        instances it names."""
        start = len(self.named)
        self.in_branch = True
        resolved = self._resolve_fn(e, hint)
        self.in_branch = False
        return resolved, self.named[start:]

    def _check_calls(self, entry: str) -> list[str]:
        """One depth-first walk of the instance graph from ``entry``, each
        instance's callees in the order its body names them; returns the
        instances in the order the walk leaves them, so each comes after
        every instance it calls and ``entry`` last. A call that closes a
        cycle is a diagnostic there, naming the cycle. Leaving an instance
        settles whether it measures or discards, itself or through an
        instance it names; no conditional's branch may name one that
        does."""
        # Each instance the walk has met: None while it is on the path.
        measuring: dict[str, Optional[bool]] = {entry: None}
        path = [entry]
        todo = [iter(self.expanded[entry][1])]
        order = []
        while todo:
            callee, pos = next(todo[-1], (None, None))
            if callee is None:
                todo.pop()
                name = path.pop()
                order.append(name)
                measured, named = self.expanded[name]
                measuring[name] = measured or any(measuring[n] for n, _ in named)
            elif callee not in measuring:
                measuring[callee] = None
                path.append(callee)
                todo.append(iter(self.expanded[callee][1]))
            elif measuring[callee] is None:
                cycle = path[path.index(callee):] + [callee]
                raise CompileError("recursive call cycle "
                                   + " -> ".join(f"@{n}" for n in cycle), pos)
        for named, pos in self.branches:
            if any(measuring[n] for n, _ in named):
                raise CompileError("conditional branches cannot measure or discard", pos)
        return order

    def _forbid_qubit_vars(self, e: ExprNode) -> ExprNode:
        """``e``, once no variable in it names a qubit."""
        if isinstance(e, VarNode) and e.name in self.env \
                and self.env[e.name][0].kind == "qubit":
            raise CompileError("conditional branches cannot capture qubits", e.pos)
        return map_children(e, self._forbid_qubit_vars)

    # -- function-position resolution -------------------------------------------

    def _resolve_fn(self, e, hint: Optional[int]):
        """Expand an expression in function position, instantiating kernels.

        A bare kernel name binds no dimension and no capture, so the
        instance it calls depends only on the kernel and ``hint``: the
        first such call instantiates it, and later ones look it up."""
        if isinstance(e, VarNode) and e.name in self.qpus:
            called = self.named_calls.get((e.name, hint))
            if called is None:
                called = self._instantiate_call(
                    CallNode(e.name, (), (), pos=e.pos), hint)
                self.named_calls[e.name, hint] = called
        elif isinstance(e, CallNode):
            called = self._instantiate_call(e, hint)
        elif isinstance(e, EmbedNode):
            return self._resolve_embed(e, hint)
        else:
            new_e, ty = self._expand_expr(e)
            if ty.kind != "func":
                raise CompileError("expected a function value", getattr(e, "pos", Pos()))
            return new_e, ty
        name, fty = called
        self.named.append((name, e.pos))
        if fty.fin == 0:  # lowering would hand it a qubit[0]
            raise CompileError(f"kernel '{name}' takes no qubits", e.pos)
        if self.rev and not fty.rev:
            raise CompileError(f"reversible kernel calls irreversible '{name}'", e.pos)
        return VarNode(name, pos=e.pos), fty

    def _bind(self, target, site, cap_params, in_dim: Optional[Arith],
              hint: Optional[int]):
        """Bind the dimension variables and captures of ``target`` (a kernel
        or classical function) at ``site`` (a call or embed of it).

        They are bound from, in order: the ``[[...]]`` bindings, the capture
        arguments (to ``cap_params`` in order), the declared defaults, and
        the piped-in width ``hint`` against ``in_dim``, target's input width
        (None if it takes no qubits). Returns (dimensions, captures).
        """
        pos = site.pos
        if len(site.dim_args) > len(target.dim_vars):
            raise CompileError(f"too many dimension bindings for {target.name}", pos)
        inner_dims = {var: _dimension(d, self.dims, pos)
                      for var, d in zip(target.dim_vars, site.dim_args)}
        if len(site.args) > len(cap_params):
            raise CompileError(f"too many capture arguments for {target.name}", pos)
        inner_captures: dict[str, ExprNode] = {}
        for p, a in zip(cap_params, site.args):
            if isinstance(a, VarNode) and a.name in self.captures:
                na = self.captures[a.name]  # a capture passed on as a capture
            elif isinstance(a, AngleNode):
                na = AngleNode(substitute(a.angle, self.captures), pos=a.pos)
            elif isinstance(a, BitsNode):
                na = a
            else:  # an unknown name is reported as one
                na, _ = self._expand_expr(a)
            if p.type.kind == "bit":
                if not isinstance(na, BitsNode):
                    raise CompileError(f"capture '{p.name}' must be a constant bit string", pos)
                _solve_dim(p.type.dim, len(na.bits), inner_dims, pos)
            elif not isinstance(na, AngleNode):
                raise CompileError(f"capture '{p.name}' must be an angle", pos)
            inner_captures[p.name] = na
        for name, default in zip(target.dim_vars, target.dim_defaults):
            if name not in inner_dims and default is not None:
                inner_dims[name] = default
        if hint is not None and in_dim is not None:
            try:
                _solve_dim(in_dim, hint, inner_dims, pos)
            except _Unbound:
                pass
        missing = [v for v in target.dim_vars if v not in inner_dims]
        if missing:
            raise CompileError(
                f"cannot infer dimension(s) {', '.join(missing)} for {target.name}; "
                f"bind them explicitly with {target.name}[[...]]",
                pos,
            )
        return inner_dims, inner_captures

    def _instantiate_call(self, call: CallNode, hint):
        """The name and type of the instance that ``call`` calls."""
        target = self.qpus.get(call.fn)
        if target is None:
            raise CompileError(f"unknown kernel '{call.fn}'", call.pos)
        cap_params = [p for p in target.params if p.type.kind != "qubit"]
        if len(call.args) < len(cap_params):
            raise CompileError(
                f"kernel {target.name} needs {len(cap_params)} capture argument(s)",
                call.pos,
            )
        q_dim = next((p.type.dim for p in target.params
                      if p.type.kind == "qubit"), None)
        inner_dims, inner_captures = self._bind(target, call, cap_params, q_dim, hint)
        return self._instantiate_qpu(target, inner_dims, inner_captures)

    def _resolve_embed(self, e: EmbedNode, hint):
        target = self.classicals.get(e.fn)
        if target is None:
            raise CompileError(f"unknown classical function '{e.fn}'", e.pos)
        # Captures bind the leading parameters; the rest are the inputs.
        free_params = target.params[len(e.args):]
        # xor embeds act on inputs+outputs; sign embeds on inputs alone.
        in_dim: Arith = Num(0)
        for p in free_params:
            in_dim = Bin("+", in_dim, p.type.dim)
        if e.mode == "xor":
            in_dim = Bin("+", in_dim, target.ret_type.dim)
        inner_dims, inner_captures = self._bind(target, e, target.params, in_dim, hint)
        inst = self._instantiate_classical(
            target, inner_dims,
            {name: c.bits for name, c in inner_captures.items()})
        if e.mode == "sign" and inst.ret_type.dim.value != 1:
            raise CompileError(".sign requires a single output bit", e.pos)
        return (EmbedNode(inst.name, e.mode, (), (), pos=e.pos),
                embed_fn(inst, e.mode))

    def _instantiate_classical(self, fn: ClassicalFn, dim_env,
                               captures: dict[str, str]) -> ClassicalFn:
        key = (fn.name, tuple(sorted(dim_env.items())), tuple(sorted(captures.items())))
        if key in self.classical_instances:
            return self.classical_instances[key]
        name = self._fresh_name(fn.name, dim_env)
        params = tuple(
            ParamNode(p.name, self._subst_type(p.type, dim_env), None, pos=p.pos)
            for p in fn.params
            if p.name not in captures
        )
        body, width = _expand_cexpr(fn.body, dim_env, captures,
                                    {p.name: p.type.dim.value for p in params})
        ret_type = self._subst_type(fn.ret_type, dim_env)
        if width != ret_type.dim.value:
            raise CompileError(
                f"classical function {name} returns bit[{width}], "
                f"declared bit[{ret_type.dim.value}]", fn.pos)
        inst = ClassicalFn(name, (), (), params, ret_type, body, pos=fn.pos)
        self.classical_instances[key] = inst
        self.out_classicals.append(inst)
        return inst


def _expand_cexpr(e: CExpr, dims: dict[str, int], captures: dict[str, str],
                  widths: dict[str, int]) -> tuple[CExpr, int]:
    """``e`` with each captured name replaced by its bits and each
    dimension folded, and its width in bits; ``widths`` holds the width of
    each parameter that is not captured."""
    if isinstance(e, CVar):
        if e.name in captures:
            return CLit(captures[e.name], pos=e.pos), len(captures[e.name])
        if e.name not in widths:
            raise CompileError(f"unknown name '{e.name}'", e.pos)
        return e, widths[e.name]
    if isinstance(e, CLit):
        return e, len(e.bits)
    if isinstance(e, CBin):
        left, lw = _expand_cexpr(e.left, dims, captures, widths)
        right, rw = _expand_cexpr(e.right, dims, captures, widths)
        if lw != rw:
            raise CompileError(f"operand widths differ: {lw} vs {rw}", e.pos)
        return replace(e, left=left, right=right), lw
    operand, w = _expand_cexpr(e.operand, dims, captures, widths)
    if isinstance(e, CNot):
        return replace(e, operand=operand), w
    if isinstance(e, CReduce):
        return replace(e, operand=operand), 1
    if isinstance(e, CIndex):
        index = _dimension(e.index, dims, e.pos)
        if not 0 <= index < w:
            raise CompileError(f"bit index {index} out of range", e.pos)
        return replace(e, operand=operand, index=Num(index)), 1
    if isinstance(e, CSlice):
        lo, hi = _dimension(e.lo, dims, e.pos), _dimension(e.hi, dims, e.pos)
        if not (0 <= lo < hi <= w):
            raise CompileError(f"bad slice [{lo}:{hi}] of bit[{w}]", e.pos)
        return replace(e, operand=operand, lo=Num(lo), hi=Num(hi)), hi - lo
    count = _dimension(e.count, dims, e.pos)
    if w != 1:
        raise CompileError("repeat() takes a single bit", e.pos)
    return replace(e, operand=operand, count=Num(count)), count


def expand(program: Program, bindings: dict[str, int]) -> TypedProgram:
    """Monomorphize ``program`` starting from its entry kernel, typing and
    checking each instance as it is expanded."""
    return Expander(program, bindings).run()
