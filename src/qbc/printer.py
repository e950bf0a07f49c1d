"""Surface-syntax printer; parse(print_program(p)) reproduces p structurally."""

from __future__ import annotations

from .ast_nodes import (
    AngleNode, Arith, BasisLitNode, BitsNode, BuiltinBasisNode,
    CallNode, CBin, CIndex, CLit, CNot, CondNode, CReduce, CRepeat, CSlice,
    CVar, DiscardNode, EmbedNode, MeasureNode, Name, Neg, Num, ParamNode, Pi,
    PipeNode, PredNode, Program, QpuFn, QubitLitNode, RepeatNode, TensorNode,
    TransNode, TypeNode, AdjointNode, VarNode, VecNode,
)
from .parser import ARITH_LEVELS, CLASSICAL_LEVELS

# Precedence levels for deciding parenthesization (higher binds tighter).
_IF, _PIPE, _TRANS, _PRED, _TENSOR, _UNARY, _POSTFIX = range(7)


def print_arith(a: Arith, prec: int = 0) -> str:
    """A dimension or an angle, parenthesized only where the grammar needs
    it: around a looser ``Bin``, a right operand at its own level, and any
    ``Bin`` under a ``Neg``."""
    text, level = _arith(a)
    return f"({text})" if level < prec else text


def _arith(a: Arith):
    if isinstance(a, Num):
        # Positional digits, which the lexer reads back to the same number;
        # repr would write 1e-05. Imported here, decimal stays off start-up.
        v = a.value
        if v == int(v):
            return str(int(v)), 3
        from decimal import Decimal
        return format(Decimal(repr(v)), "f"), 3
    if isinstance(a, Pi):
        return "pi", 3
    if isinstance(a, Name):
        return a.name, 3
    if isinstance(a, Neg):
        return f"-{print_arith(a.operand, 2)}", 2
    lvl = ARITH_LEVELS[a.op]
    return (f"{print_arith(a.left, lvl)} {a.op} {print_arith(a.right, lvl + 1)}",
            lvl)


def print_type(t: TypeNode) -> str:
    if t.kind == "angle":
        return "angle"
    return f"{t.kind}[{print_arith(t.dim)}]"


def _vec(v: VecNode) -> str:
    s = f"'{v.chars}'"
    if v.repeat is not None:
        s += f"[{print_arith(v.repeat)}]"
    if v.phase is not None:
        s += f"@({print_arith(v.phase)})"
    return s


def print_expr(e, prec: int = 0) -> str:
    text, level = _expr(e)
    if level < prec:
        return f"({text})"
    return text


def _expr(e):
    if isinstance(e, QubitLitNode):
        s = f"'{e.chars}'"
        if e.phase is not None:
            s += f"@({print_arith(e.phase)})"
        return s, _POSTFIX
    if isinstance(e, BasisLitNode):
        return "{" + ", ".join(_vec(v) for v in e.vectors) + "}", _POSTFIX
    if isinstance(e, BuiltinBasisNode):
        if e.prim != "fourier" and e.dim == Num(1):
            return e.prim, _POSTFIX
        return f"{e.prim}[{print_arith(e.dim)}]", _POSTFIX
    if isinstance(e, TensorNode):
        return " + ".join(print_expr(p, _UNARY) for p in e.parts), _TENSOR
    if isinstance(e, RepeatNode):
        return f"{print_expr(e.operand, _POSTFIX)}[{print_arith(e.count)}]", _POSTFIX
    if isinstance(e, TransNode):
        return (
            f"{print_expr(e.b_in, _PRED)} >> {print_expr(e.b_out, _PRED)}",
            _TRANS,
        )
    if isinstance(e, PipeNode):
        # A piped value that is itself a pipe was parenthesized.
        return " | ".join(print_expr(x, _TRANS) for x in (e.value, *e.fns)), _PIPE
    if isinstance(e, AdjointNode):
        return f"~{print_expr(e.fn, _UNARY)}", _UNARY
    if isinstance(e, PredNode):
        return (
            f"{print_expr(e.basis, _TENSOR)} & {print_expr(e.fn, _TENSOR)}",
            _PRED,
        )
    if isinstance(e, MeasureNode):
        return f"{print_expr(e.basis, _POSTFIX)}.measure", _POSTFIX
    if isinstance(e, DiscardNode):
        return f"discard[{print_arith(e.dim)}]", _POSTFIX
    if isinstance(e, EmbedNode):
        base = e.fn
        if e.dim_args:
            base += "[[" + ", ".join(print_arith(d) for d in e.dim_args) + "]]"
        if e.args:
            base += "(" + ", ".join(print_expr(a) for a in e.args) + ")"
        return f"{base}.{e.mode}", _POSTFIX
    if isinstance(e, CondNode):
        return (
            f"{print_expr(e.then, _PIPE)} if {print_expr(e.flag, _PIPE)} "
            f"else {print_expr(e.els, _IF)}",
            _IF,
        )
    if isinstance(e, VarNode):
        return e.name, _POSTFIX
    if isinstance(e, CallNode):
        s = e.fn
        if e.dim_args:
            s += "[[" + ", ".join(print_arith(d) for d in e.dim_args) + "]]"
        s += "(" + ", ".join(print_expr(a) for a in e.args) + ")"
        return s, _POSTFIX
    if isinstance(e, AngleNode):
        return f"({print_arith(e.angle)})", _POSTFIX
    if isinstance(e, BitsNode):
        return f"'{e.bits}'", _POSTFIX
    raise AssertionError(f"unhandled node {type(e).__name__}")


def print_cexpr(e, prec: int = 0) -> str:
    text, level = _cexpr(e)
    if level < prec:
        return f"({text})"
    return text


def _cexpr(e):
    if isinstance(e, CBin):
        lvl = CLASSICAL_LEVELS[e.op]
        return (
            f"{print_cexpr(e.left, lvl)} {e.op} {print_cexpr(e.right, lvl + 1)}",
            lvl,
        )
    if isinstance(e, CNot):
        return f"~{print_cexpr(e.operand, 3)}", 3
    if isinstance(e, CIndex):
        return f"{print_cexpr(e.operand, 4)}[{print_arith(e.index)}]", 4
    if isinstance(e, CSlice):
        return (
            f"{print_cexpr(e.operand, 4)}[{print_arith(e.lo)}:{print_arith(e.hi)}]",
            4,
        )
    if isinstance(e, CReduce):
        return f"{e.op}_reduce({print_cexpr(e.operand)})", 4
    if isinstance(e, CRepeat):
        return f"repeat({print_cexpr(e.operand)}, {print_arith(e.count)})", 4
    if isinstance(e, CVar):
        return e.name, 4
    if isinstance(e, CLit):
        return f"'{e.bits}'", 4
    raise AssertionError(f"unhandled classical node {type(e).__name__}")


def _params(params: tuple[ParamNode, ...]) -> str:
    out = []
    for p in params:
        s = f"{p.name}: {print_type(p.type)}"
        if p.default is not None:
            if isinstance(p.default, BitsNode):
                s += f" = '{p.default.bits}'"
            elif isinstance(p.default, AngleNode):
                s += f" = ({print_arith(p.default.angle)})"
        out.append(s)
    return ", ".join(out)


def _dim_vars(f) -> str:
    if not f.dim_vars:
        return ""
    parts = []
    for name, default in zip(f.dim_vars, f.dim_defaults):
        parts.append(name if default is None else f"{name} = {default}")
    return "[" + ", ".join(parts) + "]"


def _body_lines(q: QpuFn, indent: str) -> list[str]:
    lines = []
    for let in q.lets:
        if len(let.names) == 1 and let.types[0] is None:
            pat = let.names[0]
        else:
            pat = "(" + ", ".join(
                f"{n}: {print_type(t)}" for n, t in zip(let.names, let.types)
            ) + ")"
        lines.append(f"{indent}let {pat} = {print_expr(let.value)};")
    lines.append(f"{indent}{print_expr(q.body)}")
    return lines


def print_program(p: Program) -> str:
    chunks = []
    for c in p.classicals:
        head = f"classical {c.name}{_dim_vars(c)}({_params(c.params)}) -> {print_type(c.ret_type)} {{"
        chunks.append("\n".join([head, f"    {print_cexpr(c.body)}", "}"]))
    for q in p.qpus:
        rev = " rev" if q.reversible else ""
        head = f"qpu {q.name}{_dim_vars(q)}({_params(q.params)}) -> {print_type(q.ret_type)}{rev} {{"
        chunks.append("\n".join([head] + _body_lines(q, "    ") + ["}"]))
    return "\n\n".join(chunks) + "\n"
