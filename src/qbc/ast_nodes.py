"""Typed AST for the surface language: programs are lists of qpu kernels
and classical (combinational) functions whose bodies are expression trees.

The tree has the grammar's shape, so a long program is wide, not deep: a
pipe is one ``PipeNode`` holding its value and a tuple of all its stages,
and a kernel holds its ``let`` bindings as a tuple ahead of its result
expression (a ``LetNode`` is a statement, never an expression). The walks
over it loop over stages and bindings, so neither costs a stack frame.

Dimensions and angles are one arithmetic family (``Num``, ``Pi``, ``Name``,
``Neg``, ``Bin``) with one evaluator (``expand.evaluate``), one
substitution (``expand.substitute``) and one printer
(``printer.print_arith``).

Nodes are frozen records (``qbc.record``), which load faster than dataclasses.
Equality ignores source positions, so printer/parser round trips compare.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .record import field, record, replace


class Pos(NamedTuple):
    """A source position, line and column from 1; ``Pos()`` is none. A
    tuple, so the lexer and parser build one cheaply."""
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _pos_field():
    return field(default=Pos(), compare=False)


# --------------------------------------------------------------------------
# Arithmetic. A dimension is built of int ``Num``s, ``Name``s (dimension
# variables) and ``Bin``s; an angle of float ``Num``s, ``Pi``, ``Name``s
# (angle captures), ``Neg``s and ``Bin``s.


@record(frozen=True)
class Num:
    value: Union[int, float]
    pos: Pos = _pos_field()


@record(frozen=True)
class Pi:
    pos: Pos = _pos_field()


@record(frozen=True)
class Name:
    name: str
    pos: Pos = _pos_field()


@record(frozen=True)
class Neg:
    operand: "Arith"
    pos: Pos = _pos_field()


@record(frozen=True)
class Bin:
    op: str  # + - * /
    left: "Arith"
    right: "Arith"
    pos: Pos = _pos_field()


Arith = Union[Num, Pi, Name, Neg, Bin]


# --------------------------------------------------------------------------
# Types


@record(frozen=True)
class TypeNode:
    kind: str  # qubit | bit | angle
    dim: Optional[Arith] = None
    pos: Pos = _pos_field()


# --------------------------------------------------------------------------
# Quantum expressions


@record(frozen=True)
class VecNode:
    """A basis-literal vector: chars, optional repeat count, optional phase."""

    chars: str
    repeat: Optional[Arith] = None
    phase: Optional[Arith] = None
    pos: Pos = _pos_field()


@record(frozen=True)
class QubitLitNode:
    chars: str
    phase: Optional[Arith] = None
    pos: Pos = _pos_field()


@record(frozen=True)
class BasisLitNode:
    vectors: tuple[VecNode, ...]
    pos: Pos = _pos_field()


@record(frozen=True)
class BuiltinBasisNode:
    prim: str  # std | pm | ij | fourier
    dim: Arith = Num(1)
    pos: Pos = _pos_field()


@record(frozen=True)
class TensorNode:
    parts: tuple["ExprNode", ...]
    pos: Pos = _pos_field()


@record(frozen=True)
class RepeatNode:
    operand: "ExprNode"
    count: Arith
    pos: Pos = _pos_field()


@record(frozen=True)
class TransNode:
    b_in: "ExprNode"
    b_out: "ExprNode"
    pos: Pos = _pos_field()


@record(frozen=True)
class PipeNode:
    """``value | fns[0] | fns[1] | ...``, where ``bars[i]`` is the position
    of the ``|`` before ``fns[i]``. The pipe as a whole is at its last
    ``|``."""

    value: "ExprNode"
    fns: tuple["ExprNode", ...]
    bars: tuple[Pos, ...] = field(compare=False)

    @property
    def pos(self) -> Pos:
        return self.bars[-1]


@record(frozen=True)
class AdjointNode:
    fn: "ExprNode"
    pos: Pos = _pos_field()


@record(frozen=True)
class PredNode:
    basis: "ExprNode"
    fn: "ExprNode"
    pos: Pos = _pos_field()


@record(frozen=True)
class MeasureNode:
    basis: "ExprNode"
    pos: Pos = _pos_field()


@record(frozen=True)
class DiscardNode:
    dim: Arith = Num(1)
    pos: Pos = _pos_field()


@record(frozen=True)
class EmbedNode:
    """f.xor / f.sign of a classical function, captures already applied."""

    fn: str
    mode: str  # xor | sign
    args: tuple["ExprNode", ...] = ()
    dim_args: tuple[Arith, ...] = ()
    pos: Pos = _pos_field()


@record(frozen=True)
class CondNode:
    then: "ExprNode"
    flag: "ExprNode"
    els: "ExprNode"
    pos: Pos = _pos_field()


@record(frozen=True)
class VarNode:
    name: str
    pos: Pos = _pos_field()


@record(frozen=True)
class CallNode:
    """Reference to a qpu kernel, optionally binding dims and captures."""

    fn: str
    dim_args: tuple[Arith, ...] = ()
    args: tuple["ExprNode", ...] = ()
    pos: Pos = _pos_field()


@record(frozen=True)
class AngleNode:
    """An angle expression in value position (capture argument)."""

    angle: Arith
    pos: Pos = _pos_field()


@record(frozen=True)
class BitsNode:
    """A bit-string literal in value position (capture argument)."""

    bits: str
    pos: Pos = _pos_field()


ExprNode = Union[
    QubitLitNode, BasisLitNode, BuiltinBasisNode, TensorNode, RepeatNode,
    TransNode, PipeNode, AdjointNode, PredNode, MeasureNode, DiscardNode,
    EmbedNode, CondNode, VarNode, CallNode, AngleNode, BitsNode,
]

@record(frozen=True)
class LetNode:
    """``let names = value;`` (with ``types`` for a destructuring let)."""

    names: tuple[str, ...]
    types: tuple[Optional[TypeNode], ...]
    value: ExprNode
    pos: Pos = _pos_field()


# --------------------------------------------------------------------------
# Classical (combinational) expressions


@record(frozen=True)
class CVar:
    name: str
    pos: Pos = _pos_field()


@record(frozen=True)
class CLit:
    bits: str
    pos: Pos = _pos_field()


@record(frozen=True)
class CBin:
    op: str  # & | ^
    left: "CExpr"
    right: "CExpr"
    pos: Pos = _pos_field()


@record(frozen=True)
class CNot:
    operand: "CExpr"
    pos: Pos = _pos_field()


@record(frozen=True)
class CIndex:
    operand: "CExpr"
    index: Arith
    pos: Pos = _pos_field()


@record(frozen=True)
class CSlice:
    operand: "CExpr"
    lo: Arith
    hi: Arith
    pos: Pos = _pos_field()


@record(frozen=True)
class CReduce:
    op: str  # xor | and | or
    operand: "CExpr"
    pos: Pos = _pos_field()


@record(frozen=True)
class CRepeat:
    operand: "CExpr"
    count: Arith
    pos: Pos = _pos_field()


CExpr = Union[CVar, CLit, CBin, CNot, CIndex, CSlice, CReduce, CRepeat]


# The expression-valued fields of each node, quantum and classical;
# ``parts``, ``fns`` and ``args`` hold tuples of expressions.
_CHILD_FIELDS = {
    TensorNode: ("parts",), RepeatNode: ("operand",),
    TransNode: ("b_in", "b_out"), PipeNode: ("value", "fns"),
    AdjointNode: ("fn",), PredNode: ("basis", "fn"), MeasureNode: ("basis",),
    EmbedNode: ("args",), CondNode: ("then", "flag", "els"),
    CallNode: ("args",),
    CBin: ("left", "right"), CNot: ("operand",), CIndex: ("operand",),
    CSlice: ("operand",), CReduce: ("operand",), CRepeat: ("operand",),
}


def map_children(e: Union[ExprNode, CExpr], f) -> Union[ExprNode, CExpr]:
    """``e`` with each of its child expressions ``c`` replaced by ``f(c)``,
    applied in field order."""
    kids = {}
    for name in _CHILD_FIELDS.get(type(e), ()):
        v = getattr(e, name)
        kids[name] = tuple(map(f, v)) if isinstance(v, tuple) else f(v)
    return replace(e, **kids) if kids else e


# --------------------------------------------------------------------------
# Functions and programs


@record(frozen=True)
class ParamNode:
    name: str
    type: TypeNode
    default: Optional[ExprNode] = None
    pos: Pos = _pos_field()


@record(frozen=True)
class QpuFn:
    name: str
    dim_vars: tuple[str, ...]
    dim_defaults: tuple[Optional[int], ...]
    params: tuple[ParamNode, ...]
    ret_type: TypeNode
    reversible: bool
    lets: tuple[LetNode, ...]  # in order; each sees the bindings before it
    body: ExprNode  # the result, which sees every binding
    pos: Pos = _pos_field()


@record(frozen=True)
class ClassicalFn:
    name: str
    dim_vars: tuple[str, ...]
    dim_defaults: tuple[Optional[int], ...]
    params: tuple[ParamNode, ...]
    ret_type: TypeNode
    body: CExpr
    pos: Pos = _pos_field()

    def embed_width(self, mode: str) -> int:
        """The register an embed of this expanded function acts on: its
        inputs, and in ``xor`` mode its outputs after them."""
        n = sum(p.type.dim.value for p in self.params)
        return n + self.ret_type.dim.value if mode == "xor" else n


@record(frozen=True)
class Program:
    qpus: tuple[QpuFn, ...]
    classicals: tuple[ClassicalFn, ...]
    entry: str = "main"
