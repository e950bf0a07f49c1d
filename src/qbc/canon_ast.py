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

from .ast_nodes import ExprNode, Program, TensorNode, map_children
from .record import replace


def canonicalize_ast(program: Program) -> Program:
    qpus = tuple(
        replace(q, lets=tuple(replace(let, value=_flatten(let.value))
                              for let in q.lets),
                body=_flatten(q.body))
        for q in program.qpus)
    return Program(qpus, program.classicals, program.entry)


def _flatten(e: ExprNode) -> ExprNode:
    e = map_children(e, _flatten)
    if not isinstance(e, TensorNode):
        return e
    parts: list[ExprNode] = []
    for p in e.parts:
        parts.extend(p.parts if isinstance(p, TensorNode) else (p,))
    return TensorNode(tuple(parts), pos=e.pos)
