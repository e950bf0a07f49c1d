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
walks over the tree after it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.depth = 0  # open nesting levels, see the module docstring

    # -- token plumbing ---------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def take(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise CompileError(f"expected {kind!r}, found {t.text or t.kind!r}", t.pos)
        return self.take()

    def accept(self, kind: str) -> Optional[Token]:
        if self.at(kind):
            return self.take()
        return None

    def enter(self, t: Token) -> None:
        """Open one more level at ``t``. A parse error ends the parse, so
        only the level's owner closes it, by lowering ``depth``."""
        if self.depth == MAX_NESTING:
            raise CompileError(
                f"expression nests deeper than {MAX_NESTING} levels", t.pos)
        self.depth += 1

    @contextmanager
    def nested(self, t: Token):
        """Parse one level deeper than ``t``, which opens the level."""
        self.enter(t)
        yield
        self.depth -= 1

    # -- program ----------------------------------------------------------

    def parse_program(self) -> Program:
        qpus, classicals = [], []
        while not self.at("EOF"):
            if self.at("classical"):
                classicals.append(self.parse_classical())
            elif self.at("qpu"):
                qpus.append(self.parse_qpu())
            else:
                t = self.peek()
                raise CompileError(f"expected 'qpu' or 'classical', found {t.text!r}", t.pos)
        return Program(tuple(qpus), tuple(classicals))

    def parse_dim_vars(self) -> tuple[tuple[str, ...], tuple[Optional[int], ...]]:
        names, defaults = [], []
        if self.accept("["):
            while True:
                t = self.expect("IDENT")
                names.append(t.text)
                if self.accept("="):
                    defaults.append(int(self.expect("INT").text))
                else:
                    defaults.append(None)
                if not self.accept(","):
                    break
            self.expect("]")
        return tuple(names), tuple(defaults)

    def parse_type(self, angle: bool = False) -> TypeNode:
        """A qubit[N] or bit[N] type, or with ``angle`` also ``angle``: an
        angle is only ever a kernel's capture parameter, which expansion
        bakes away."""
        t = self.peek()
        if t.kind in ("qubit", "bit"):
            self.take()
            self.expect("[")
            dim = self.parse_dim_expr()
            self.expect("]")
            return TypeNode(t.kind, dim, pos=t.pos)
        if t.kind == "angle":
            if not angle:
                raise CompileError("only kernel parameters may be angles", t.pos)
            self.take()
            return TypeNode("angle", None, pos=t.pos)
        raise CompileError(f"expected a type, found {t.text!r}", t.pos)

    def parse_params(self, angle: bool = False) -> tuple[ParamNode, ...]:
        params = []
        self.expect("(")
        if not self.at(")"):
            while True:
                name = self.expect("IDENT")
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
        t = self.peek()
        if ty.kind == "bit":
            tok = self.expect("QLIT")
            if any(c not in "01" for c in tok.text):
                raise CompileError("bit literal may only contain 0 and 1", tok.pos)
            return BitsNode(tok.text, pos=tok.pos)
        if ty.kind == "angle":
            return AngleNode(self.parse_angle_expr(), pos=t.pos)
        raise CompileError("only bit and angle parameters may have defaults", t.pos)

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
        while self.at("let"):
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
                n = self.expect("IDENT")
                self.expect(":")
                types.append(self.parse_type())
                names.append(n.text)
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
        if self.at("if"):
            kw = self.take()
            flag = self.parse_pipe()
            with self.nested(self.expect("else")):
                els = self.parse_expr()
            return CondNode(e, flag, els, pos=kw.pos)
        return e

    def parse_pipe(self) -> ExprNode:
        e = self.parse_trans()
        fns, bars = [], []
        while self.at("|"):
            bars.append(self.take().pos)
            fns.append(self.parse_trans())
        return PipeNode(e, tuple(fns), tuple(bars)) if fns else e

    def parse_trans(self) -> ExprNode:
        e = self.parse_pred()
        if self.at(">>"):
            t = self.take()
            rhs = self.parse_pred()
            return TransNode(e, rhs, pos=t.pos)
        return e

    def parse_pred(self) -> ExprNode:
        e = self.parse_tensor()
        if self.at("&"):
            t = self.take()
            rhs = self.parse_tensor()
            return PredNode(e, rhs, pos=t.pos)
        return e

    def parse_tensor(self) -> ExprNode:
        e = self.parse_unary()
        if not self.at("+"):
            return e
        parts = [e]
        while self.accept("+"):
            parts.append(self.parse_unary())
        return TensorNode(tuple(parts), pos=parts[0].pos)

    def parse_unary(self) -> ExprNode:
        if self.at("~"):
            t = self.take()
            with self.nested(t):
                return AdjointNode(self.parse_unary(), pos=t.pos)
        return self.parse_postfix()

    def parse_postfix(self) -> ExprNode:
        first = e = self.parse_atom()
        start = self.depth
        while self.peek().kind in ("[[", "[", "(", ".", "@"):
            t = self.take()
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
                if not self.at(")"):
                    while True:
                        args.append(self.parse_capture_arg())
                        if not self.accept(","):
                            break
                self.expect(")")
                if isinstance(e, VarNode):
                    e = CallNode(e.name, (), tuple(args), pos=t.pos)
                elif isinstance(e, CallNode) and not e.args:
                    e = CallNode(e.fn, e.dim_args, tuple(args), pos=t.pos)
                else:
                    raise CompileError("only function names can be called", t.pos)
            elif t.kind == ".":
                method = self.peek()
                if method.kind == "measure":
                    self.take()
                    e = MeasureNode(e, pos=t.pos)
                elif method.kind == "flip":
                    self.take()
                    e = self.desugar_flip(e, t.pos)
                elif method.kind in ("xor", "sign"):
                    self.take()
                    if isinstance(e, VarNode):
                        e = EmbedNode(e.name, method.kind, (), (), pos=t.pos)
                    elif isinstance(e, CallNode):
                        e = EmbedNode(e.fn, method.kind, e.args, e.dim_args, pos=t.pos)
                    else:
                        raise CompileError(
                            f".{method.kind} applies to classical function names",
                            t.pos,
                        )
                else:
                    raise CompileError(f"unknown method .{method.text}", method.pos)
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
        if isinstance(e, BuiltinBasisNode) and e.prim in ("std", "pm", "ij") \
                and e.dim == Num(1):
            chars = {"std": ("0", "1"), "pm": ("p", "m"), "ij": ("i", "j")}[e.prim]
            flipped = BasisLitNode((VecNode(chars[1]), VecNode(chars[0])), pos=pos)
            return TransNode(BuiltinBasisNode(e.prim, Num(1), pos=e.pos), flipped, pos=pos)
        raise CompileError(".flip applies to the single-qubit bases std, pm, ij", pos)

    def parse_capture_arg(self) -> ExprNode:
        t = self.peek()
        if t.kind == "QLIT":
            self.take()
            if any(c not in "01" for c in t.text):
                raise CompileError("bit literal may only contain 0 and 1", t.pos)
            return BitsNode(t.text, pos=t.pos)
        if t.kind == "IDENT":
            self.take()
            return VarNode(t.text, pos=t.pos)
        # Anything else must be an angle expression.
        return AngleNode(self.parse_angle_expr(), pos=t.pos)

    def parse_atom(self) -> ExprNode:
        t = self.peek()
        if t.kind == "QLIT":
            self.take()
            return QubitLitNode(t.text, pos=t.pos)
        if t.kind == "{":
            self.take()
            vecs = [self.parse_vec()]
            while self.accept(","):
                vecs.append(self.parse_vec())
            self.expect("}")
            return BasisLitNode(tuple(vecs), pos=t.pos)
        if t.kind in ("std", "pm", "ij"):
            self.take()
            dim: Arith = Num(1)
            if self.at("[") and not self.at("[["):
                self.take()
                dim = self.parse_dim_expr()
                self.expect("]")
            return BuiltinBasisNode(t.kind, dim, pos=t.pos)
        if t.kind == "fourier":
            self.take()
            self.expect("[")
            dim = self.parse_dim_expr()
            self.expect("]")
            return BuiltinBasisNode("fourier", dim, pos=t.pos)
        if t.kind == "id":
            self.take()
            dim = Num(1)
            if self.at("["):
                self.take()
                dim = self.parse_dim_expr()
                self.expect("]")
            std = BuiltinBasisNode("std", dim, pos=t.pos)
            return TransNode(std, std, pos=t.pos)
        if t.kind == "discard":
            self.take()
            dim = Num(1)
            if self.at("["):
                self.take()
                dim = self.parse_dim_expr()
                self.expect("]")
            return DiscardNode(dim, pos=t.pos)
        if t.kind == "IDENT":
            self.take()
            return VarNode(t.text, pos=t.pos)
        if t.kind == "(":
            self.take()
            with self.nested(t):
                e = self.parse_expr()
            self.expect(")")
            return e
        raise CompileError(f"unexpected token {t.text or t.kind!r}", t.pos)

    def parse_vec(self) -> VecNode:
        t = self.expect("QLIT")
        repeat = None
        if self.at("[") and not self.at("[["):
            self.take()
            repeat = self.parse_dim_expr()
            self.expect("]")
        phase = None
        if self.accept("@"):
            phase = self.parse_angle_unary()
        return VecNode(t.text, repeat, phase, pos=t.pos)

    # -- dims and angles ----------------------------------------------------

    def binary(self, operand, levels: dict[str, int], node, lowest: int = 0):
        """A left-associative chain of ``operand``s joined by the operators
        in ``levels`` (operator kind -> binding level, loosest 0) binding at
        ``lowest`` or tighter; ``node(kind, lhs, rhs, pos=...)`` builds each
        link."""
        first = e = operand()
        start = self.depth
        while levels.get(self.peek().kind, -1) >= lowest:
            t = self.take()
            if e is not first:  # this link nests the chain so far
                self.enter(t)
            rhs = self.binary(operand, levels, node, levels[t.kind] + 1)
            e = node(t.kind, e, rhs, pos=t.pos)
        self.depth = start
        return e

    def parse_dim_expr(self) -> Arith:
        return self.binary(self.parse_dim_atom, ARITH_LEVELS, Bin)

    def parse_dim_atom(self) -> Arith:
        t = self.peek()
        if t.kind == "INT":
            self.take()
            return Num(int(t.text), pos=t.pos)
        if t.kind == "IDENT":
            self.take()
            return Name(t.text, pos=t.pos)
        if t.kind == "(":
            self.take()
            with self.nested(t):
                e = self.parse_dim_expr()
            self.expect(")")
            return e
        raise CompileError(f"expected a dimension, found {t.text!r}", t.pos)

    def parse_angle_expr(self) -> Arith:
        return self.binary(self.parse_angle_unary, ARITH_LEVELS, Bin)

    def parse_angle_unary(self) -> Arith:
        # Also the angle directly after '@': a single, possibly negated
        # factor unless parenthesized.
        t = self.peek()
        if t.kind == "-":
            self.take()
            with self.nested(t):
                return Neg(self.parse_angle_unary(), pos=t.pos)
        return self.parse_angle_factor()

    def parse_angle_factor(self) -> Arith:
        t = self.peek()
        if t.kind == "pi":
            self.take()
            return Pi(pos=t.pos)
        if t.kind in ("FLOAT", "INT"):
            self.take()
            if not math.isfinite(value := float(t.text)):
                raise CompileError("angle literal is too large", t.pos)
            return Num(value, pos=t.pos)
        if t.kind == "IDENT":
            self.take()
            return Name(t.text, pos=t.pos)
        if t.kind == "(":
            self.take()
            with self.nested(t):
                e = self.parse_angle_expr()
            self.expect(")")
            return e
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
        t = self.peek()
        if t.kind == "~":
            self.take()
            with self.nested(t):
                return CNot(self.parse_cunary(), pos=t.pos)
        return self.parse_cpostfix()

    def parse_cpostfix(self) -> CExpr:
        first = e = self.parse_catom()
        start = self.depth
        while self.at("["):
            t = self.take()
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
        t = self.peek()
        if t.kind == "QLIT":
            self.take()
            if any(c not in "01" for c in t.text):
                raise CompileError("bit literal may only contain 0 and 1", t.pos)
            return CLit(t.text, pos=t.pos)
        if t.kind in ("xor_reduce", "and_reduce", "or_reduce"):
            self.take()
            self.expect("(")
            with self.nested(t):
                inner = self.parse_cexpr()
            self.expect(")")
            return CReduce(t.kind.split("_")[0], inner, pos=t.pos)
        if t.kind == "repeat":
            self.take()
            self.expect("(")
            with self.nested(t):
                inner = self.parse_cexpr()
            self.expect(",")
            count = self.parse_dim_expr()
            self.expect(")")
            return CRepeat(inner, count, pos=t.pos)
        if t.kind == "IDENT":
            self.take()
            return CVar(t.text, pos=t.pos)
        if t.kind == "(":
            self.take()
            with self.nested(t):
                e = self.parse_cexpr()
            self.expect(")")
            return e
        raise CompileError(f"unexpected token {t.text!r} in classical body", t.pos)


def parse(source: str) -> Program:
    """Parse source text into a Program; raises CompileError on bad syntax."""
    p = Parser(tokenize(source))
    prog = p.parse_program()
    if not prog.qpus and not prog.classicals:
        raise CompileError("empty program: missing entry kernel 'main'", Pos(1, 1))
    return prog
