"""
AST canonicalization: double-adjoint removal, adjointed translations flipped,
fully-spanning std predicates turned into identity tensors, predicated
translations folded into wider translations, and float constant folding.
"""

from __future__ import annotations

from dataclasses import replace

from .ast_nodes import (
    AngleLit, BasisLitNode, BuiltinBasisNode, CondNode, EmbedNode,
    ExprNode, LetNode, MeasureNode, PipeNode, PredNode, Program,
    QubitLitNode, TensorNode, TransNode, AdjointNode, VarNode, VecNode,
    DiscardNode,
)
from .typecheck import fold_angle


def canonicalize_ast(program: Program, file: str = "<input>") -> Program:
    qpus = tuple(
        replace(q, body=_rewrite(q.body, file)) for q in program.qpus
    )
    return Program(qpus, program.classicals, program.entry)


def _rewrite(e: ExprNode, file: str) -> ExprNode:
    changed = True
    while changed:
        e, changed = _rewrite_once(e, file)
    return e


def _rewrite_once(e: ExprNode, file: str) -> tuple[ExprNode, bool]:
    changed = False

    def sub(x):
        nonlocal changed
        y, c = _rewrite_once(x, file)
        changed = changed or c
        return y

    if isinstance(e, AdjointNode):
        inner = sub(e.fn)
        if isinstance(inner, AdjointNode):
            return inner.fn, True
        if isinstance(inner, TransNode):
            return TransNode(inner.b_out, inner.b_in, pos=e.pos), True
        return AdjointNode(inner, pos=e.pos), changed
    if isinstance(e, PredNode):
        b = sub(e.basis)
        fn = sub(e.fn)
        if isinstance(b, BuiltinBasisNode) and b.prim == "std":
            ident = TransNode(b, b, pos=e.pos)
            return TensorNode((ident, fn), pos=e.pos), True
        if isinstance(fn, TransNode):
            return TransNode(
                _tensor(b, fn.b_in, e.pos),
                _tensor(b, fn.b_out, e.pos),
                pos=e.pos,
            ), True
        return PredNode(b, fn, pos=e.pos), changed
    if isinstance(e, (QubitLitNode,)):
        if e.phase is not None and not isinstance(e.phase, AngleLit):
            return QubitLitNode(
                e.chars, AngleLit(fold_angle(e.phase, e.pos, file)), pos=e.pos
            ), True
        return e, False
    if isinstance(e, BasisLitNode):
        vecs, any_folded = [], False
        for v in e.vectors:
            if v.phase is not None and not isinstance(v.phase, AngleLit):
                vecs.append(
                    VecNode(v.chars, v.repeat,
                            AngleLit(fold_angle(v.phase, v.pos, file)), pos=v.pos)
                )
                any_folded = True
            else:
                vecs.append(v)
        if any_folded:
            return BasisLitNode(tuple(vecs), pos=e.pos), True
        return e, False
    if isinstance(e, TensorNode):
        parts = tuple(sub(p) for p in e.parts)
        # Flatten nested tensors for stable downstream shapes.
        if any(isinstance(p, TensorNode) for p in parts):
            flat = []
            for p in parts:
                flat.extend(p.parts if isinstance(p, TensorNode) else [p])
            return TensorNode(tuple(flat), pos=e.pos), True
        return TensorNode(parts, pos=e.pos), changed
    if isinstance(e, TransNode):
        return TransNode(sub(e.b_in), sub(e.b_out), pos=e.pos), changed
    if isinstance(e, PipeNode):
        return PipeNode(sub(e.value), sub(e.fn), pos=e.pos), changed
    if isinstance(e, MeasureNode):
        return MeasureNode(sub(e.basis), pos=e.pos), changed
    if isinstance(e, CondNode):
        return CondNode(sub(e.then), sub(e.flag), sub(e.els), pos=e.pos), changed
    if isinstance(e, LetNode):
        return LetNode(
            e.names, e.types, sub(e.value), sub(e.body), pos=e.pos
        ), changed
    if isinstance(e, (VarNode, BuiltinBasisNode, EmbedNode, DiscardNode)):
        return e, False
    return e, False


def _tensor(a: ExprNode, b: ExprNode, pos) -> ExprNode:
    parts: list[ExprNode] = []
    for x in (a, b):
        parts.extend(x.parts if isinstance(x, TensorNode) else [x])
    return TensorNode(tuple(parts), pos=pos)
