"""
Typed AST for the surface language: programs are lists of qpu kernels and
classical (combinational) functions whose bodies are expression trees.

Node equality ignores source positions so printer/parser round trips can be
compared structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class Pos:
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _pos_field():
    return field(default=Pos(), compare=False, repr=False)


# --------------------------------------------------------------------------
# Dimension expressions (integer-valued, over dimension variables)


@dataclass(frozen=True)
class DimLit:
    value: int
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class DimVar:
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class DimBin:
    op: str  # + - * /
    left: "DimExpr"
    right: "DimExpr"
    pos: Pos = _pos_field()


DimExpr = Union[DimLit, DimVar, DimBin]


# --------------------------------------------------------------------------
# Angle expressions (float-valued; evaluated by typecheck.fold_angle)


@dataclass(frozen=True)
class AngleLit:
    value: float
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class AnglePi:
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class AngleVar:
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class AngleNeg:
    operand: "AngleExpr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class AngleBin:
    op: str  # + - * /
    left: "AngleExpr"
    right: "AngleExpr"
    pos: Pos = _pos_field()


AngleExpr = Union[AngleLit, AnglePi, AngleVar, AngleNeg, AngleBin]


# --------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class TypeNode:
    kind: str  # qubit | bit | angle
    dim: Optional[DimExpr] = None
    pos: Pos = _pos_field()


# --------------------------------------------------------------------------
# Quantum expressions


@dataclass(frozen=True)
class VecNode:
    """A basis-literal vector: chars, optional repeat count, optional phase."""

    chars: str
    repeat: Optional[DimExpr] = None
    phase: Optional[AngleExpr] = None
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class QubitLitNode:
    chars: str
    phase: Optional[AngleExpr] = None
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class BasisLitNode:
    vectors: tuple[VecNode, ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class BuiltinBasisNode:
    prim: str  # std | pm | ij | fourier
    dim: DimExpr = DimLit(1)
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class TensorNode:
    parts: tuple["ExprNode", ...]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class RepeatNode:
    operand: "ExprNode"
    count: DimExpr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class TransNode:
    b_in: "ExprNode"
    b_out: "ExprNode"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class PipeNode:
    value: "ExprNode"
    fn: "ExprNode"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class AdjointNode:
    fn: "ExprNode"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class PredNode:
    basis: "ExprNode"
    fn: "ExprNode"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class MeasureNode:
    basis: "ExprNode"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class DiscardNode:
    dim: DimExpr = DimLit(1)
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class EmbedNode:
    """f.xor / f.sign of a classical function, captures already applied."""

    fn: str
    mode: str  # xor | sign
    args: tuple["ExprNode", ...] = ()
    dim_args: tuple[DimExpr, ...] = ()
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CondNode:
    then: "ExprNode"
    flag: "ExprNode"
    els: "ExprNode"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class VarNode:
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CallNode:
    """Reference to a qpu kernel, optionally binding dims and captures."""

    fn: str
    dim_args: tuple[DimExpr, ...] = ()
    args: tuple["ExprNode", ...] = ()
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class AngleNode:
    """An angle expression in value position (capture argument)."""

    angle: AngleExpr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class BitsNode:
    """A bit-string literal in value position (capture argument)."""

    bits: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class LetNode:
    names: tuple[str, ...]
    types: tuple[Optional[TypeNode], ...]
    value: "ExprNode"
    body: "ExprNode"
    pos: Pos = _pos_field()


ExprNode = Union[
    QubitLitNode, BasisLitNode, BuiltinBasisNode, TensorNode, RepeatNode,
    TransNode, PipeNode, AdjointNode, PredNode, MeasureNode, DiscardNode,
    EmbedNode, CondNode, VarNode, CallNode, AngleNode, BitsNode, LetNode,
]


# --------------------------------------------------------------------------
# Classical (combinational) expressions


@dataclass(frozen=True)
class CVar:
    name: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CLit:
    bits: str
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CBin:
    op: str  # & | ^
    left: "CExpr"
    right: "CExpr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CNot:
    operand: "CExpr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CIndex:
    operand: "CExpr"
    index: DimExpr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CSlice:
    operand: "CExpr"
    lo: DimExpr
    hi: DimExpr
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CReduce:
    op: str  # xor | and | or
    operand: "CExpr"
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class CRepeat:
    operand: "CExpr"
    count: DimExpr
    pos: Pos = _pos_field()


CExpr = Union[CVar, CLit, CBin, CNot, CIndex, CSlice, CReduce, CRepeat]


# --------------------------------------------------------------------------
# Functions and programs


@dataclass(frozen=True)
class ParamNode:
    name: str
    type: TypeNode
    default: Optional[ExprNode] = None
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class QpuFn:
    name: str
    dim_vars: tuple[str, ...]
    dim_defaults: tuple[Optional[int], ...]
    params: tuple[ParamNode, ...]
    ret_type: TypeNode
    reversible: bool
    body: ExprNode
    pos: Pos = _pos_field()


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Program:
    qpus: tuple[QpuFn, ...]
    classicals: tuple[ClassicalFn, ...]
    entry: str = "main"

    def qpu(self, name: str) -> Optional[QpuFn]:
        for f in self.qpus:
            if f.name == name:
                return f
        return None

    def classical(self, name: str) -> Optional[ClassicalFn]:
        for f in self.classicals:
            if f.name == name:
                return f
        return None
