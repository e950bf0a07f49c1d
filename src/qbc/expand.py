"""
Expansion: resolve dimension variables, unroll repeats into tensor products,
and bake captured bit/angle constants into monomorphic function instances.

Runs before type checking. Dimension variables are bound from, in order:
explicit [[...]] bindings, -D command-line bindings (entry only), declared
defaults, and inference from capture lengths or the piped-in register width.
A name in a parameter or result type must be one of its function's
declared dimension variables.

Expansion types each expression with ``qwir.QwTy`` and the rules next to
it as far as shapes go (value, basis or function, and the width piped into
a stage), and reports the shape errors; the checker reports the rest.
Capture arguments have no type: ``BitsNode`` and ``AngleNode`` tell them
apart.

Kernels and classical functions are found by name in one dict each, built
once per program; a name declared twice is a diagnostic there. A bare
kernel name in function position binds no dimension and no capture, so
the instance it calls depends only on the kernel and the width piped into
it: the first such call binds and instantiates, and each later one looks
the instance up, one dict lookup per repeated call site.

Dimensions and angles are one arithmetic family, with one evaluator
(``evaluate``, which folds every dimension here and every angle for
typecheck and lowering) and one substitution (``substitute``, which puts
captured angles in place of their names). Expanded dimensions are ``Num``s
holding ints; expanded angles stay expressions, which ``--emit ast`` prints.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .ast_nodes import (
    AngleNode, Arith, BasisLitNode, Bin, BitsNode, BuiltinBasisNode,
    CallNode, CExpr, CIndex, ClassicalFn, CLit, CondNode, CRepeat, CSlice,
    CVar, DiscardNode, EmbedNode, ExprNode, LetNode, MeasureNode, Name, Neg,
    Num, ParamNode, Pi, PipeNode, Pos, PredNode, Program, QpuFn,
    QubitLitNode, RepeatNode, TensorNode, TransNode, TypeNode, AdjointNode,
    VarNode, VecNode, map_children,
)
from .diagnostics import CompileError
from .qwir import (
    QwTy, discard_fn, embed_fn, measure_fn, pred_fn, qubit, rev_fn,
    signature, tensor_fn,
)
from .record import replace


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
    """The type of a tensor whose parts are all functions, all bases, or
    all values; the checker tells qubits from bits."""
    kinds = {t.kind for t in tys}
    if kinds == {"func"}:
        return tensor_fn(tys)
    if kinds == {"basis"} or not kinds & {"basis", "func"}:
        return QwTy(tys[0].kind, sum(t.dim for t in tys))
    raise CompileError("tensor operands must all be values, bases, or functions", pos)


class Expander:
    def __init__(self, program: Program, bindings: dict[str, int]):
        self.qpus = _by_name(program.qpus, "kernel")
        self.classicals = _by_name(program.classicals, "classical function")
        self.bindings = dict(bindings)
        self.qpu_instances: dict[tuple, tuple[str, QwTy]] = {}
        # (kernel, piped width) -> the instance a bare kernel name calls
        self.named_calls: dict[tuple[str, Optional[int]], tuple[str, QwTy]] = {}
        self.classical_instances: dict[tuple, ClassicalFn] = {}
        self.out_qpus: list[QpuFn] = []
        self.out_classicals: list[ClassicalFn] = []
        self.used_names: set[str] = set()

    # -- entry ---------------------------------------------------------------

    def run(self) -> Program:
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
        for name in main.dim_vars:
            if name not in dim_env:
                raise CompileError(f"dimension variable {name} is unbound; pass -D {name}=...", main.pos)
        entry, _ = self._instantiate_qpu(main, dim_env, captures, keep_name="main")
        return Program(tuple(self.out_qpus), tuple(self.out_classicals), entry=entry)

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
        ``captures`` baked in, expanded the first time it is asked for.
        Every bit or angle parameter is a capture, so the instance keeps
        only its qubit parameter and no angle outlives expansion. The type
        is known before the body is expanded, so a recursive call finds
        it."""
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
        env = {p.name: qubit(p.type.dim.value) for p in params}
        lets = tuple(self._expand_let(let, dim_env, captures, env)
                     for let in fn.lets)
        body, _ = self._expand_expr(fn.body, dim_env, captures, env)
        self.out_qpus.append(replace(head, name=name, lets=lets, body=body))
        return self.qpu_instances[key]

    def _subst_type(self, t: TypeNode, dim_env: dict[str, int]) -> TypeNode:
        dim = _dimension(t.dim, dim_env, t.pos)
        if dim < 1:
            raise CompileError(f"non-positive dimension {dim}", t.pos)
        return TypeNode(t.kind, Num(dim), pos=t.pos)

    def _expand_let(self, let: LetNode, dims, captures, env) -> LetNode:
        """Expand ``let``'s value in ``env``, then bind its names there."""
        value, vty = self._expand_expr(let.value, dims, captures, env)
        split = len(let.names) > 1
        types = []
        for ty in let.types:
            if ty is None and split:
                raise CompileError("destructuring let requires types", let.pos)
            types.append(None if ty is None else self._subst_type(ty, dims))
        widths = [vty.dim if ty is None else ty.dim.value for ty in types]
        if sum(widths) != vty.dim:
            raise CompileError(
                f"destructuring splits {sum(widths)} of {vty.dim} qubits/bits"
                if split else "let type does not match value", let.pos,
            )
        env.update((name, vty if ty is None else QwTy(vty.kind, w))
                   for name, ty, w in zip(let.names, types, widths))
        return LetNode(let.names, tuple(types), value, pos=let.pos)

    # -- expression expansion ---------------------------------------------------

    def _expand_expr(self, e, dims, captures, env):
        """Return (expanded expr, its type)."""
        if isinstance(e, QubitLitNode):
            phase = substitute(e.phase, captures)
            return QubitLitNode(e.chars, phase, pos=e.pos), qubit(len(e.chars))
        if isinstance(e, BasisLitNode):
            vecs = []
            for v in e.vectors:
                chars = v.chars
                if v.repeat is not None:
                    chars = chars * _dimension(v.repeat, dims, v.pos)
                phase = substitute(v.phase, captures)
                vecs.append(VecNode(chars, None, phase, pos=v.pos))
            dim = len(vecs[0].chars) if vecs else 0
            return BasisLitNode(tuple(vecs), pos=e.pos), QwTy("basis", dim)
        if isinstance(e, BuiltinBasisNode):
            dim = _dimension(e.dim, dims, e.pos)
            if dim < 1:
                raise CompileError("basis dimension must be positive", e.pos)
            return BuiltinBasisNode(e.prim, Num(dim), pos=e.pos), QwTy("basis", dim)
        if isinstance(e, TensorNode):
            parts, tys = [], []
            for p in e.parts:
                part, ty = self._expand_expr(p, dims, captures, env)
                parts.append(part)
                tys.append(ty)
            return TensorNode(tuple(parts), pos=e.pos), _tensor(tys, e.pos)
        if isinstance(e, RepeatNode):
            n = _dimension(e.count, dims, e.pos)
            if n < 1:
                raise CompileError("repeat count must be positive", e.pos)
            inner, ty = self._expand_expr(e.operand, dims, captures, env)
            if n == 1:
                return inner, ty
            return TensorNode((inner,) * n, pos=e.pos), _tensor([ty] * n, e.pos)
        if isinstance(e, TransNode):
            b_in, t1 = self._expand_expr(e.b_in, dims, captures, env)
            b_out, t2 = self._expand_expr(e.b_out, dims, captures, env)
            if t1.kind != "basis" or t2.kind != "basis":
                raise CompileError("translation operands must be bases", e.pos)
            return TransNode(b_in, b_out, pos=e.pos), rev_fn(t1.dim)
        if isinstance(e, PipeNode):
            # Each stage's input width is the hint for inferring its
            # dimensions; a piped function, which the checker rejects,
            # hints its result width.
            value, ty = self._expand_expr(e.value, dims, captures, env)
            fns = []
            for fn in e.fns:
                fn, ty = self._resolve_fn(fn, dims, captures, env,
                                          hint=ty.fout_dim or ty.dim)
                fns.append(fn)
            return PipeNode(value, tuple(fns), e.bars), ty.out
        if isinstance(e, AdjointNode):
            fn, fty = self._resolve_fn(e.fn, dims, captures, env, hint=None)
            return AdjointNode(fn, pos=e.pos), fty
        if isinstance(e, PredNode):
            b, bty = self._expand_expr(e.basis, dims, captures, env)
            if bty.kind != "basis":
                raise CompileError("predicate must be a basis", e.pos)
            fn, fty = self._resolve_fn(e.fn, dims, captures, env, hint=None)
            return PredNode(b, fn, pos=e.pos), pred_fn(bty.dim, fty)
        if isinstance(e, MeasureNode):
            b, bty = self._expand_expr(e.basis, dims, captures, env)
            if bty.kind != "basis":
                raise CompileError(".measure applies to a basis", e.pos)
            return MeasureNode(b, pos=e.pos), measure_fn(bty.dim)
        if isinstance(e, DiscardNode):
            dim = _dimension(e.dim, dims, e.pos)
            return DiscardNode(Num(dim), pos=e.pos), discard_fn(dim)
        if isinstance(e, EmbedNode):
            return self._resolve_embed(e, dims, captures, env, hint=None)
        if isinstance(e, CondNode):
            then, tty = self._resolve_fn(e.then, dims, captures, env, hint=None)
            flag, _ = self._expand_expr(e.flag, dims, captures, env)
            els, _ = self._resolve_fn(e.els, dims, captures, env, hint=tty.fin)
            return CondNode(then, flag, els, pos=e.pos), tty
        if isinstance(e, VarNode):
            if e.name in captures:
                raise CompileError(
                    f"capture '{e.name}' cannot be used as a value", e.pos)
            if e.name in env:
                return e, env[e.name]
            if e.name in self.qpus:
                return self._resolve_fn(e, dims, captures, env, hint=None)
            raise CompileError(f"unknown name '{e.name}'", e.pos)
        if isinstance(e, CallNode):
            return self._resolve_fn(e, dims, captures, env, hint=None)
        raise CompileError(f"unexpected node {type(e).__name__}", getattr(e, "pos", Pos()))

    # -- function-position resolution -------------------------------------------

    def _resolve_fn(self, e, dims, captures, env, hint: Optional[int]):
        """Expand an expression in function position, instantiating kernels.

        A bare kernel name binds no dimension and no capture, so the
        instance it calls depends only on the kernel and ``hint``: the
        first such call instantiates it, and later ones look it up."""
        if isinstance(e, VarNode) and e.name in self.qpus:
            called = self.named_calls.get((e.name, hint))
            if called is None:
                called = self._instantiate_call(
                    CallNode(e.name, (), (), pos=e.pos), dims, captures, env, hint)
                self.named_calls[e.name, hint] = called
            return VarNode(called[0], pos=e.pos), called[1]
        if isinstance(e, CallNode):
            inst, ty = self._instantiate_call(e, dims, captures, env, hint)
            return VarNode(inst, pos=e.pos), ty
        if isinstance(e, EmbedNode):
            return self._resolve_embed(e, dims, captures, env, hint)
        new_e, ty = self._expand_expr(e, dims, captures, env)
        if ty.kind != "func":
            raise CompileError("expected a function value", getattr(e, "pos", Pos()))
        return new_e, ty

    def _bind(self, target, site, cap_params, in_dim: Optional[Arith],
              dims, captures, env, hint: Optional[int]):
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
        inner_dims = {var: _dimension(d, dims, pos)
                      for var, d in zip(target.dim_vars, site.dim_args)}
        if len(site.args) > len(cap_params):
            raise CompileError(f"too many capture arguments for {target.name}", pos)
        inner_captures: dict[str, ExprNode] = {}
        for p, a in zip(cap_params, site.args):
            if isinstance(a, VarNode) and a.name in captures:
                na = captures[a.name]  # a capture passed on as a capture
            elif isinstance(a, AngleNode):
                na = AngleNode(substitute(a.angle, captures), pos=a.pos)
            elif isinstance(a, BitsNode):
                na = a
            else:  # an unknown name is reported as one
                na, _ = self._expand_expr(a, dims, captures, env)
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

    def _instantiate_call(self, call: CallNode, dims, captures, env, hint):
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
        inner_dims, inner_captures = self._bind(
            target, call, cap_params, q_dim, dims, captures, env, hint)
        return self._instantiate_qpu(target, inner_dims, inner_captures)

    def _resolve_embed(self, e: EmbedNode, dims, captures, env, hint):
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
        inner_dims, inner_captures = self._bind(
            target, e, target.params, in_dim, dims, captures, env, hint)
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
        body = _expand_cexpr(fn.body, dim_env, captures)
        inst = ClassicalFn(name, (), (), params,
                           self._subst_type(fn.ret_type, dim_env), body,
                           pos=fn.pos)
        self.classical_instances[key] = inst
        self.out_classicals.append(inst)
        return inst


def _expand_cexpr(e: CExpr, dims: dict[str, int], captures: dict[str, str]) -> CExpr:
    """``e`` with each captured name replaced by its bits and each
    dimension folded."""
    if isinstance(e, CVar) and e.name in captures:
        return CLit(captures[e.name], pos=e.pos)
    e = map_children(e, lambda c: _expand_cexpr(c, dims, captures))

    def fold(d: Arith) -> Num:
        return Num(_dimension(d, dims, e.pos))
    if isinstance(e, CIndex):
        return replace(e, index=fold(e.index))
    if isinstance(e, CSlice):
        return replace(e, lo=fold(e.lo), hi=fold(e.hi))
    if isinstance(e, CRepeat):
        return replace(e, count=fold(e.count))
    return e


def expand(program: Program, bindings: dict[str, int]) -> Program:
    """Monomorphize ``program`` starting from its entry kernel."""
    return Expander(program, bindings).run()
