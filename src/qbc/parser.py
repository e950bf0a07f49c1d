"""
Recursive-descent parser for .qw programs.

A kernel body is a run of ``let`` bindings, each ended by ``;``, and then
its result expression; the bindings are parsed in a loop into
``QpuFn.lets``. Expression precedence, loosest to tightest:
    e if c else e2
    |                 (pipe; a chain of stages is one n-ary PipeNode)
    >>                (basis translation)
    &                 (predication)
    +                 (tensor product)
    ~e                (adjoint)
    postfix: [N] repeat, [[N]] dim bindings, (args), .measure/.flip/.xor/.sign, @angle
Classical bodies use | ^ & ~ with indexing, slicing, and reductions.

The parser holds its current token and that token's kind, and each rule
decides by comparing the kind it holds; it never looks further ahead. A
pipe stage (``>>``, ``&`` and ``+``) is one rule that reads its operators
after its first operand, and a postfix chain is read only when the token
after an atom starts one, so an atom with no operator is reached through
five calls from ``parse_expr``.

Dimensions and angles build the same arithmetic nodes; each has its own
entry point (``parse_dim_expr``, ``parse_angle_expr``) for its own
diagnostics.

Expressions may nest at most ``MAX_NESTING`` levels deep, counted together
across quantum, classical, angle and dimension expressions. A level is
opened by each of:
    a parenthesis, ``~`` or unary ``-``, until it closes;
    the ``else`` arm of a conditional, so a chain of ``else``s nests;
    each link after the first of a chain, which nests the chain so far one
    level deeper until the chain ends: a binary-operator chain
    (``1 + 1 + 1``, ``x ^ x ^ x``) or a postfix chain (``'0'[1][1]``,
    ``std.measure.measure``, ``x[0][0]``). A chain of k links holds k - 1
    levels.
Deeper input is a positioned diagnostic at the token that opens the level
past the limit, not a RecursionError in the parser or in the recursive
walks over the tree after it. A parse error ends the parse, so a rule
that opens a level closes it by lowering ``depth`` when it returns.
"""

from __future__ import annotations

import math
from typing import Optional

from .ast_nodes import (
    AngleNode, Arith, BasisLitNode, Bin, BitsNode, BuiltinBasisNode,
    CallNode, CBin, CExpr, CIndex, ClassicalFn, CLit, CNot, CondNode,
    CReduce, CRepeat, CSlice, CVar, DiscardNode, EmbedNode, ExprNode,
    LetNode, MeasureNode, Name, Neg, Num, ParamNode, Pi, PipeNode, Pos,
    PredNode, Program, QpuFn, QubitLitNode, RepeatNode, TensorNode,
    TransNode, TypeNode, AdjointNode, VarNode, VecNode,
)
from .diagnostics import CompileError
from .lexer import Token, tokenize

MAX_NESTING = 100
# Binary operators' binding levels, loosest 0.
ARITH_LEVELS = {"+": 0, "-": 0, "*": 1, "/": 1}
CLASSICAL_LEVELS = {"|": 0, "^": 1, "&": 2}
_POSTFIX = frozenset(("[[", "[", "(", ".", "@"))
# Kinds of the tokens that start an atom, apart from "(".
_ATOMS = frozenset(("IDENT", "QLIT", "{", "std", "pm", "ij", "fourier", "id",
                    "discard"))
_ONE = Num(1)
# The vectors of each single-qubit builtin basis that .flip swaps, swapped.
_FLIPPED = {prim: (VecNode(one), VecNode(zero)) for prim, zero, one in
            (("std", "0", "1"), ("pm", "p", "m"), ("ij", "i", "j"))}


class Parser:
    def __init__(self, tokens: list[Token]):
        self.next_token = iter(tokens).__next__
        self.tok = self.next_token()  # the current token
        self.kind = self.tok.kind
        self.depth = 0  # open nesting levels, see the module docstring

    # -- token plumbing ---------------------------------------------------

    def advance(self) -> Token:
        """The current token; the one after it becomes current."""
        t = self.tok
        self.tok = self.next_token()
        self.kind = self.tok.kind
        return t

    def expect(self, kind: str) -> Token:
        if self.kind != kind:
            t = self.tok
            raise CompileError(f"expected {kind!r}, found {t.text or t.kind!r}", t.pos)
        return self.advance()

    def accept(self, kind: str) -> Optional[Token]:
        return self.advance() if self.kind == kind else None

    def enter(self, t: Token) -> None:
        """Open one more level at ``t``; its owner closes it."""
        if self.depth == MAX_NESTING:
            raise CompileError(
                f"expression nests deeper than {MAX_NESTING} levels", t.pos)
        self.depth += 1

    def bracketed_dim(self) -> Arith:
        """A dimension in brackets."""
        self.expect("[")
        dim = self.parse_dim_expr()
        self.expect("]")
        return dim

    # -- program ----------------------------------------------------------

    def parse_program(self) -> Program:
        qpus, classicals = [], []
        while self.kind != "EOF":
            if self.kind == "classical":
                classicals.append(self.parse_classical())
            elif self.kind == "qpu":
                qpus.append(self.parse_qpu())
            else:
                t = self.tok
                raise CompileError(f"expected 'qpu' or 'classical', found {t.text!r}", t.pos)
        return Program(tuple(qpus), tuple(classicals))

    def parse_dim_vars(self) -> tuple[tuple[str, ...], tuple[Optional[int], ...]]:
        names, defaults = [], []
        if self.accept("["):
            while True:
                name = self.expect("IDENT")
                if name.text in names:
                    raise CompileError(
                        f"duplicate dimension variable {name.text}", name.pos)
                names.append(name.text)
                defaults.append(int(self.expect("INT").text)
                                if self.accept("=") else None)
                if not self.accept(","):
                    break
            self.expect("]")
        return tuple(names), tuple(defaults)

    def parse_type(self, angle: bool = False) -> TypeNode:
        """A qubit[N] or bit[N] type, or with ``angle`` also ``angle``: an
        angle is only ever a kernel's capture parameter, which expansion
        bakes away."""
        t = self.tok
        if t.kind in ("qubit", "bit"):
            self.advance()
            return TypeNode(t.kind, self.bracketed_dim(), pos=t.pos)
        if t.kind == "angle":
            if not angle:
                raise CompileError("only kernel parameters may be angles", t.pos)
            self.advance()
            return TypeNode("angle", None, pos=t.pos)
        raise CompileError(f"expected a type, found {t.text!r}", t.pos)

    def parse_params(self, angle: bool = False) -> tuple[ParamNode, ...]:
        params = []
        self.expect("(")
        if self.kind != ")":
            while True:
                name = self.expect("IDENT")
                if any(p.name == name.text for p in params):
                    raise CompileError(f"duplicate parameter '{name.text}'", name.pos)
                self.expect(":")
                ty = self.parse_type(angle)
                default = None
                if self.accept("="):
                    default = self.parse_default_value(ty)
                params.append(ParamNode(name.text, ty, default, pos=name.pos))
                if not self.accept(","):
                    break
        self.expect(")")
        return tuple(params)

    def parse_default_value(self, ty: TypeNode) -> ExprNode:
        t = self.tok
        if ty.kind == "bit":
            return self.bits(self.expect("QLIT"), BitsNode)
        if ty.kind == "angle":
            return AngleNode(self.parse_angle_expr(), pos=t.pos)
        raise CompileError("only bit and angle parameters may have defaults", t.pos)

    def bits(self, t: Token, node):
        """``node`` of a bit literal token."""
        if t.text.strip("01"):
            raise CompileError("bit literal may only contain 0 and 1", t.pos)
        return node(t.text, pos=t.pos)

    def parse_qpu(self) -> QpuFn:
        kw = self.expect("qpu")
        name = self.expect("IDENT")
        dim_vars, dim_defaults = self.parse_dim_vars()
        params = self.parse_params(angle=True)
        self.expect("->")
        ret = self.parse_type()
        reversible = self.accept("rev") is not None
        self.expect("{")
        lets = []
        while self.kind == "let":
            lets.append(self.parse_let())
        body = self.parse_expr()
        self.expect("}")
        return QpuFn(
            name.text, dim_vars, dim_defaults, params, ret, reversible,
            tuple(lets), body, pos=kw.pos,
        )

    def parse_let(self) -> LetNode:
        kw = self.expect("let")
        names, types = [], []
        if self.accept("("):
            while True:
                names.append(self.expect("IDENT").text)
                self.expect(":")
                types.append(self.parse_type())
                if not self.accept(","):
                    break
            self.expect(")")
        else:
            names.append(self.expect("IDENT").text)
            types.append(self.parse_type() if self.accept(":") else None)
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        return LetNode(tuple(names), tuple(types), value, pos=kw.pos)

    # -- quantum expressions ----------------------------------------------

    def parse_expr(self) -> ExprNode:
        e = self.parse_pipe()
        if self.kind != "if":
            return e
        kw = self.advance()
        flag = self.parse_pipe()
        self.enter(self.expect("else"))
        els = self.parse_expr()
        self.depth -= 1
        return CondNode(e, flag, els, pos=kw.pos)

    def parse_pipe(self) -> ExprNode:
        e = self.parse_stage()
        if self.kind != "|":
            return e
        fns, bars = [], []
        while self.kind == "|":
            bars.append(self.advance().pos)
            fns.append(self.parse_stage())
        return PipeNode(e, tuple(fns), tuple(bars))

    def parse_stage(self, lowest: int = 0) -> ExprNode:
        """A pipe stage's operators that bind at ``lowest`` or tighter:
        ``>>`` (0) joins two ``&`` operands, ``&`` (1) two ``+`` operands,
        and ``+`` (2) any number of unary operands."""
        e = self.parse_unary()
        if self.kind == "+":
            parts = [e]
            while self.accept("+"):
                parts.append(self.parse_unary())
            e = TensorNode(tuple(parts), pos=e.pos)
        if self.kind == "&" and lowest <= 1:
            t = self.advance()
            e = PredNode(e, self.parse_stage(2), pos=t.pos)
        if self.kind == ">>" and lowest == 0:
            t = self.advance()
            e = TransNode(e, self.parse_stage(1), pos=t.pos)
        return e

    def parse_unary(self) -> ExprNode:
        if self.kind == "~":
            t = self.advance()
            self.enter(t)
            e = AdjointNode(self.parse_unary(), pos=t.pos)
            self.depth -= 1
            return e
        e = self.parse_atom()
        return self.parse_postfix(e) if self.kind in _POSTFIX else e

    def parse_postfix(self, e: ExprNode) -> ExprNode:
        first, start = e, self.depth
        while self.kind in _POSTFIX:
            t = self.advance()
            if e is not first:  # this link nests the chain so far
                self.enter(t)
            if t.kind == "[[":
                dims = [self.parse_dim_expr()]
                while self.accept(","):
                    dims.append(self.parse_dim_expr())
                self.expect("]")
                self.expect("]")
                if isinstance(e, VarNode):
                    e = CallNode(e.name, tuple(dims), (), pos=t.pos)
                elif isinstance(e, CallNode) and not e.dim_args:
                    e = CallNode(e.fn, tuple(dims), e.args, pos=t.pos)
                else:
                    raise CompileError("dimension bindings apply to function names", t.pos)
            elif t.kind == "[":
                count = self.parse_dim_expr()
                self.expect("]")
                e = RepeatNode(e, count, pos=t.pos)
            elif t.kind == "(":
                args = []
                if self.kind != ")":
                    args.append(self.parse_capture_arg())
                    while self.accept(","):
                        args.append(self.parse_capture_arg())
                self.expect(")")
                if isinstance(e, VarNode):
                    e = CallNode(e.name, (), tuple(args), pos=t.pos)
                elif isinstance(e, CallNode) and not e.args:
                    e = CallNode(e.fn, e.dim_args, tuple(args), pos=t.pos)
                else:
                    raise CompileError("only function names can be called", t.pos)
            elif t.kind == ".":
                method = self.tok
                if method.kind == "measure":
                    e = MeasureNode(e, pos=t.pos)
                elif method.kind == "flip":
                    e = self.desugar_flip(e, t.pos)
                elif method.kind not in ("xor", "sign"):
                    raise CompileError(f"unknown method .{method.text}", method.pos)
                elif isinstance(e, VarNode):
                    e = EmbedNode(e.name, method.kind, (), (), pos=t.pos)
                elif isinstance(e, CallNode):
                    e = EmbedNode(e.fn, method.kind, e.args, e.dim_args, pos=t.pos)
                else:
                    raise CompileError(
                        f".{method.kind} applies to classical function names", t.pos)
                self.advance()
            else:
                angle = self.parse_angle_unary()
                if isinstance(e, QubitLitNode) and e.phase is None:
                    e = QubitLitNode(e.chars, angle, pos=e.pos)
                elif isinstance(e, RepeatNode) and isinstance(e.operand, QubitLitNode):
                    inner = QubitLitNode(e.operand.chars, angle, pos=e.operand.pos)
                    e = RepeatNode(inner, e.count, pos=e.pos)
                else:
                    raise CompileError("@ phase applies to qubit literals", t.pos)
        self.depth = start
        return e

    def desugar_flip(self, e: ExprNode, pos: Pos) -> ExprNode:
        # b.flip on a single-qubit builtin basis swaps its two vectors.
        if isinstance(e, BuiltinBasisNode) and e.prim in _FLIPPED \
                and e.dim == _ONE:
            flipped = BasisLitNode(_FLIPPED[e.prim], pos=pos)
            return TransNode(BuiltinBasisNode(e.prim, _ONE, pos=e.pos), flipped, pos=pos)
        raise CompileError(".flip applies to the single-qubit bases std, pm, ij", pos)

    def parse_capture_arg(self) -> ExprNode:
        t = self.tok
        if t.kind == "QLIT":
            return self.bits(self.advance(), BitsNode)
        if t.kind == "IDENT":
            self.advance()
            return VarNode(t.text, pos=t.pos)
        # Anything else must be an angle expression.
        return AngleNode(self.parse_angle_expr(), pos=t.pos)

    def parse_atom(self) -> ExprNode:
        t = self.tok
        kind = t.kind
        if kind == "(":
            return self.parenthesized(self.parse_expr)
        if kind not in _ATOMS:
            raise CompileError(f"unexpected token {t.text or kind!r}", t.pos)
        self.advance()
        if kind == "IDENT":
            return VarNode(t.text, pos=t.pos)
        if kind == "QLIT":
            return QubitLitNode(t.text, pos=t.pos)
        if kind == "{":
            vecs = [self.parse_vec()]
            while self.accept(","):
                vecs.append(self.parse_vec())
            self.expect("}")
            return BasisLitNode(tuple(vecs), pos=t.pos)
        if kind == "fourier":
            return BuiltinBasisNode("fourier", self.bracketed_dim(), pos=t.pos)
        dim = self.bracketed_dim() if self.kind == "[" else _ONE
        if kind == "discard":
            return DiscardNode(dim, pos=t.pos)
        if kind == "id":
            std = BuiltinBasisNode("std", dim, pos=t.pos)
            return TransNode(std, std, pos=t.pos)
        return BuiltinBasisNode(kind, dim, pos=t.pos)

    def parse_vec(self) -> VecNode:
        t = self.expect("QLIT")
        repeat = self.bracketed_dim() if self.kind == "[" else None
        phase = self.parse_angle_unary() if self.accept("@") else None
        return VecNode(t.text, repeat, phase, pos=t.pos)

    # -- dims and angles ----------------------------------------------------

    def binary(self, operand, levels: dict[str, int], node, lowest: int = 0):
        """A left-associative chain of ``operand``s joined by the operators
        in ``levels`` (operator kind -> binding level, loosest 0) binding at
        ``lowest`` or tighter; ``node(kind, lhs, rhs, pos=...)`` builds each
        link."""
        first = e = operand()
        start = self.depth
        while levels.get(self.kind, -1) >= lowest:
            t = self.advance()
            if e is not first:  # this link nests the chain so far
                self.enter(t)
            rhs = self.binary(operand, levels, node, levels[t.kind] + 1)
            e = node(t.kind, e, rhs, pos=t.pos)
        self.depth = start
        return e

    def parse_dim_expr(self) -> Arith:
        return self.binary(self.parse_dim_atom, ARITH_LEVELS, Bin)

    def parse_dim_atom(self) -> Arith:
        t = self.tok
        if t.kind == "INT":
            self.advance()
            return Num(int(t.text), pos=t.pos)
        if t.kind == "IDENT":
            self.advance()
            return Name(t.text, pos=t.pos)
        if t.kind == "(":
            return self.parenthesized(self.parse_dim_expr)
        raise CompileError(f"expected a dimension, found {t.text!r}", t.pos)

    def parenthesized(self, inner):
        """``( inner )`` one level deeper than the ``(`` it starts at."""
        self.enter(self.advance())
        e = inner()
        self.depth -= 1
        self.expect(")")
        return e

    def parse_angle_expr(self) -> Arith:
        return self.binary(self.parse_angle_unary, ARITH_LEVELS, Bin)

    def parse_angle_unary(self) -> Arith:
        # Also the angle directly after '@': a single, possibly negated
        # factor unless parenthesized.
        t = self.tok
        if t.kind == "-":
            self.enter(self.advance())
            e = Neg(self.parse_angle_unary(), pos=t.pos)
            self.depth -= 1
            return e
        if t.kind == "pi":
            self.advance()
            return Pi(pos=t.pos)
        if t.kind in ("FLOAT", "INT"):
            self.advance()
            if not math.isfinite(value := float(t.text)):
                raise CompileError("angle literal is too large", t.pos)
            return Num(value, pos=t.pos)
        if t.kind == "IDENT":
            self.advance()
            return Name(t.text, pos=t.pos)
        if t.kind == "(":
            return self.parenthesized(self.parse_angle_expr)
        raise CompileError(f"expected an angle, found {t.text!r}", t.pos)

    # -- classical ----------------------------------------------------------

    def parse_classical(self) -> ClassicalFn:
        kw = self.expect("classical")
        name = self.expect("IDENT")
        dim_vars, dim_defaults = self.parse_dim_vars()
        params = self.parse_params()
        self.expect("->")
        ret = self.parse_type()
        if ret.kind != "bit":
            raise CompileError("classical functions return bit[?]", ret.pos)
        self.expect("{")
        body = self.parse_cexpr()
        self.expect("}")
        return ClassicalFn(
            name.text, dim_vars, dim_defaults, params, ret, body, pos=kw.pos
        )

    def parse_cexpr(self) -> CExpr:
        return self.binary(self.parse_cunary, CLASSICAL_LEVELS, CBin)

    def parse_cunary(self) -> CExpr:
        if self.kind == "~":
            t = self.advance()
            self.enter(t)
            e = CNot(self.parse_cunary(), pos=t.pos)
            self.depth -= 1
            return e
        e = self.parse_catom()
        if self.kind != "[":
            return e
        first, start = e, self.depth
        while self.kind == "[":
            t = self.advance()
            if e is not first:  # this link nests the chain so far
                self.enter(t)
            lo = self.parse_dim_expr()
            if self.accept(":"):
                hi = self.parse_dim_expr()
                self.expect("]")
                e = CSlice(e, lo, hi, pos=t.pos)
            else:
                self.expect("]")
                e = CIndex(e, lo, pos=t.pos)
        self.depth = start
        return e

    def parse_catom(self) -> CExpr:
        t = self.tok
        if t.kind == "IDENT":
            self.advance()
            return CVar(t.text, pos=t.pos)
        if t.kind == "QLIT":
            return self.bits(self.advance(), CLit)
        if t.kind in ("xor_reduce", "and_reduce", "or_reduce", "repeat"):
            self.advance()
            self.expect("(")
            self.enter(t)
            inner = self.parse_cexpr()
            self.depth -= 1
            if t.kind != "repeat":
                self.expect(")")
                return CReduce(t.kind.split("_")[0], inner, pos=t.pos)
            self.expect(",")
            count = self.parse_dim_expr()
            self.expect(")")
            return CRepeat(inner, count, pos=t.pos)
        if t.kind == "(":
            return self.parenthesized(self.parse_cexpr)
        raise CompileError(f"unexpected token {t.text!r} in classical body", t.pos)


def parse(source: str) -> Program:
    """Parse source text into a Program; raises CompileError on bad syntax."""
    prog = Parser(tokenize(source)).parse_program()
    if not prog.qpus and not prog.classicals:
        raise CompileError("empty program: missing entry kernel 'main'", Pos(1, 1))
    return prog
