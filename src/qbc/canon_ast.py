"""
AST canonicalization: nested tensor products are flattened in one bottom-up
pass, so ``a + (b + c)`` reaches lowering as the single ``a + b + c`` and the
basis IR gets one ``qbpack``/``qbunpack`` per tensor rather than one per
nesting level. Flattening cannot change a type.

It is the only AST rewrite. Double adjoints, adjointed translations, std
predicates, predicated translations and constant angles are all handled once,
in the basis IR: ``qwir_passes`` (``canonicalize_ir``, ``inline``,
``adjoint_block``, ``predicate_block``) and the angle folding in
``lower_ast``.
"""

from __future__ import annotations

from dataclasses import replace

from .ast_nodes import (
    AdjointNode, CondNode, ExprNode, LetNode, MeasureNode, PipeNode, PredNode,
    Program, TensorNode, TransNode,
)

# The expression-valued fields of each node that can hold a tensor.
_CHILDREN = {
    TransNode: ("b_in", "b_out"),
    PipeNode: ("value", "fn"),
    AdjointNode: ("fn",),
    PredNode: ("basis", "fn"),
    MeasureNode: ("basis",),
    CondNode: ("then", "flag", "els"),
    LetNode: ("value", "body"),
}


def canonicalize_ast(program: Program) -> Program:
    qpus = tuple(replace(q, body=_flatten(q.body)) for q in program.qpus)
    return Program(qpus, program.classicals, program.entry)


def _flatten(e: ExprNode) -> ExprNode:
    if isinstance(e, TensorNode):
        parts: list[ExprNode] = []
        for p in map(_flatten, e.parts):
            parts.extend(p.parts if isinstance(p, TensorNode) else (p,))
        return TensorNode(tuple(parts), pos=e.pos)
    kids = {}
    for f in _CHILDREN.get(type(e), ()):
        kids[f] = _flatten(getattr(e, f))  # not a comprehension: one frame per level
    return replace(e, **kids) if kids else e
