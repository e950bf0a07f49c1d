"""
Rewrites on the basis-level IR: adjointing and predicating single blocks,
canonicalization, the adjoint and predicated forms of functions, and
inlining. Lowering applies every function expression where it stands
(``lower_ast``), so the only edge between functions is a ``call`` of a
kernel, with its ``adj`` and ``pred`` attributes, and no rewrite here meets
a function value.

The pipeline inlines, then keeps the entry alone (``prune_unreachable``).
A module lists each function after every function it calls (``qwir.verify``
holds it), so ``inline`` needs no walk of the call graph: it flattens the
functions in module order, each once, by splicing its callees' flat bodies
and then canonicalizing it. An adjoint or predicated form is made
from the callee's flat body the first time a call asks for it
(``specialize``); a flat body holds no call, so neither does the form, and
one splice pass leaves no call behind.

The front end has reported every user error, and ``qwir.verify`` holds
what these rewrites assume of their input: a reversible function takes and
returns one qubit value and holds no op without an inverse and no bit op,
so every op in it moves qubits; only a reversible function is adjointed or
predicated; and each call's types match its callee's. So none of them
reports a diagnostic.

Every op these rewrites build with fresh results comes from
``QwFunc.emit``; ``_copy_op`` copies one with its operands renamed, and
predication runs each op it controls through one pack, apply, unpack step
(``pred_apply`` in ``predicate_block``). Only block arguments are made with
``QwFunc.new_value`` directly.
"""

from __future__ import annotations

import math
from typing import Optional

from .bases import (
    Basis, BasisElement, BasisLiteral, BasisVector, Prim, as_literal, concat,
)
from .qwir import QwBlock, QwFunc, QwModule, QwOp, qubit


# The qbtrans attributes of a two-qubit SWAP.
SWAP = {
    "b_in": Basis((BasisLiteral((BasisVector(Prim.STD, "01"),
                                 BasisVector(Prim.STD, "10"))),)),
    "b_out": Basis((BasisLiteral((BasisVector(Prim.STD, "10"),
                                  BasisVector(Prim.STD, "01"))),)),
}


# ---------------------------------------------------------------------------
# Adjoint


def _copy_op(fn: QwFunc, block: QwBlock, op: QwOp, val_map: dict[int, int]) -> None:
    """Append ``op`` to ``block`` with its operands mapped through
    ``val_map`` and fresh results, which ``val_map`` then maps op's to."""
    results = fn.emit(block, op.kind, [val_map[v] for v in op.operands],
                      [fn.types[r] for r in op.results], op.attrs, op.regions)
    val_map.update(zip(op.results, results))


def adjoint_block(fn: QwFunc, block: QwBlock) -> QwBlock:
    """Rebuild ``block``, which takes and returns one qubit value, running
    backward."""
    term = block.ops[-1]
    new = QwBlock()
    (a,) = block.args
    new.args.append(fn.new_value(fn.types[a]))
    val_map = {term.operands[0]: new.args[0]}
    for op in reversed(block.ops[:-1]):
        _emit_adjoint(fn, new, op, val_map)
    fn.emit(new, term.kind, [val_map[a]])
    return new


def _emit_adjoint(fn: QwFunc, new: QwBlock, op: QwOp, val_map: dict[int, int]) -> None:
    """Append the inverse of ``op`` to ``new``: it consumes the values
    ``val_map`` gives op's results, and ``val_map`` then maps op's
    operands to its results."""
    t = fn.types
    if op.kind == "qbpack":
        results = fn.emit(new, "qbunpack", [val_map[op.results[0]]],
                          [t[v] for v in op.operands],
                          {"sizes": tuple(t[v].dim for v in op.operands)})
        val_map.update(zip(op.operands, results))
        return
    (q,) = op.operands
    if op.kind == "qbunpack":
        (val_map[q],) = fn.emit(new, "qbpack", [val_map[r] for r in op.results],
                                [t[q]])
        return
    attrs = op.attrs
    if op.kind == "qbtrans":
        attrs = {**attrs, "b_in": attrs["b_out"], "b_out": attrs["b_in"]}
    # Bennett embeddings and sign flips are self-adjoint.
    (val_map[q],) = fn.emit(new, op.kind, [val_map[op.results[0]]], [t[q]], attrs)


# ---------------------------------------------------------------------------
# Qubit index analysis and predication


def qubit_index_analysis(fn: QwFunc, block: QwBlock) -> dict[int, tuple[int, ...]]:
    """Map each qubit value to the input positions it carries (renaming map)."""
    (a,) = block.args
    idx = {a: tuple(range(fn.types[a].dim))}
    for op in block.ops[:-1]:
        if op.kind == "qbpack":
            combined: tuple[int, ...] = ()
            for v in op.operands:
                combined += idx[v]
            idx[op.results[0]] = combined
        elif op.kind == "qbunpack":
            src = idx[op.operands[0]]
            at = 0
            for r, s in zip(op.results, op.attrs["sizes"]):
                idx[r] = src[at : at + s]
                at += s
        else:  # qbtrans or embed: one qubit in and out
            idx[op.results[0]] = idx[op.operands[0]]
    return idx


def undo_swaps(perm: list[int]) -> list[tuple[int, int]]:
    """Position swaps that, applied in order after ``perm``, restore identity."""
    arr = list(perm)
    swaps = []
    for i in range(len(arr)):
        if arr[i] == i:
            continue
        j = arr.index(i, i + 1)
        arr[i], arr[j] = arr[j], arr[i]
        swaps.append((i, j))
    assert arr == sorted(arr)
    return swaps


def predicate_block(fn: QwFunc, block: QwBlock, pred: Basis) -> QwBlock:
    """Rebuild ``block``, which takes and returns one qubit value, so it
    acts only inside span(pred) of fresh qubits prepended to it.

    Every translation and embed gets the predicate prepended; renaming-based
    swaps are undone outside the predicated space with an uncontrolled SWAP
    followed by a predicated SWAP per transposition.
    """
    p = pred.dim
    term = block.ops[-1]
    index = qubit_index_analysis(fn, block)

    new = QwBlock()
    (a,) = block.args
    n = fn.types[a].dim
    new.args.append(fn.new_value(qubit(p + n)))
    pred_q, body_q = fn.emit(new, "qbunpack", new.args, [qubit(p), qubit(n)],
                             {"sizes": (p, n)})
    val_map = {a: body_q}

    def pred_apply(kind: str, body_vals: list[int], attrs: dict,
                   predicated: bool = True) -> list[int]:
        """Pack the predicate and ``body_vals``, run ``kind`` on the packed
        value, unpack, and return the new body values. A qbtrans gets the
        predicate prepended to its bases. With ``predicated=False`` the op
        runs on ``body_vals`` alone."""
        nonlocal pred_q
        if predicated:
            body_vals = [pred_q] + body_vals
            if kind == "qbtrans":
                attrs = {**attrs, "b_in": concat(pred, attrs["b_in"]),
                         "b_out": concat(pred, attrs["b_out"])}
        dims = [fn.types[v].dim for v in body_vals]
        (packed,) = fn.emit(new, "qbpack", body_vals, [qubit(sum(dims))])
        (out,) = fn.emit(new, kind, [packed], [qubit(sum(dims))], attrs)
        outs = fn.emit(new, "qbunpack", [out], [qubit(d) for d in dims],
                       {"sizes": tuple(dims)})
        if predicated:
            pred_q = outs.pop(0)
        return outs

    for op in block.ops[:-1]:
        if op.kind in ("qbpack", "qbunpack"):
            _copy_op(fn, new, op, val_map)
            continue
        attrs = op.attrs
        if op.kind == "embed":
            attrs = {**attrs, "pred": concat(pred, attrs.get("pred"))}
        (val_map[op.results[0]],) = pred_apply(
            op.kind, [val_map[op.operands[0]]], attrs)

    # Undo renaming-based swaps outside the predicated space.
    out_vals = [val_map[v] for v in term.operands]
    swaps = undo_swaps([i for v in term.operands for i in index[v]])
    if swaps:
        (packed,) = fn.emit(new, "qbpack", out_vals, [qubit(n)])
        out_vals = fn.emit(new, "qbunpack", [packed], [qubit(1)] * n,
                           {"sizes": (1,) * n})
        for (i, j) in swaps:
            pair = [out_vals[i], out_vals[j]]
            pair = pred_apply("qbtrans", pair, SWAP, predicated=False)
            out_vals[i], out_vals[j] = pred_apply("qbtrans", pair, SWAP)
    (final,) = fn.emit(new, "qbpack", [pred_q] + out_vals, [qubit(p + n)])
    fn.emit(new, term.kind, [final])
    return new


# ---------------------------------------------------------------------------
# Canonicalization
#
# A rewrite that drops an op records what replaces each of its results in a
# per-function substitution map. Operands are looked up through the map,
# chains included, when an op is visited, so no rewrite walks the function
# to replace uses.
#
# A qbtrans whose qubit operand is the result of another qbtrans in the same
# block is fused into that op: ``A >> B`` then ``C >> D`` is ``A >> D'``, and
# qubit linearity makes the later op the earlier one's only use. ``D'`` is
# built per element of B, C and D, which must line up in count and dims:
# where ``B_k == C_k`` it is ``D_k``; where ``B_k`` and ``C_k`` are literals
# of one prim with one set of eigenbits (a std/pm/ij builtin counts as its
# full literal) and ``D_k`` is a literal too, vector i of ``D'_k`` is the
# ``D_k`` vector j at which ``C_k`` holds the eigenbits of ``B_k``'s vector
# i, with phase phi(B_k, i) - phi(C_k, j) + phi(D_k, j). Any other shape is
# left unfused. A run composes into one ``_Chain`` and builds its ``Basis``
# once, at the end of the walk.


def canonicalize_ir(m: QwModule) -> None:
    for fn in m.functions.values():
        _canonicalize_fn(fn, {})


def _canonicalize_fn(fn: QwFunc, subst: dict[int, int]) -> None:
    while _canon_block(fn, fn.block, subst):
        pass


def _lookup(subst: dict[int, int], v: int) -> int:
    while v in subst:
        v = subst[v]
    return v


def _def_map(block: QwBlock) -> dict[int, QwOp]:
    defs: dict[int, QwOp] = {}
    for op in block.ops:
        for r in op.results:
            defs[r] = op
    return defs


def _use_counts(block: QwBlock, counts: dict[int, int],
                subst: dict[int, int]) -> None:
    """Count the uses of each value, substituting every operand first."""
    for op in block.ops:
        op.operands = [_lookup(subst, v) for v in op.operands]
        for v in op.operands:
            counts[v] = counts.get(v, 0) + 1
        for r in op.regions:
            _use_counts(r, counts, subst)


def _size(e: BasisElement) -> int:
    return len(e.vectors) if isinstance(e, BasisLiteral) else 1 << e.dim


def _compose_literal(b: BasisElement, pick: Optional[list], c: BasisElement,
                     d: BasisElement) -> Optional[list]:
    """The pick list of ``b`` (``pick`` chooses its vectors, None for all of
    them in order) carried through ``c >> d``; None if the literal rule does
    not apply."""
    if Prim.FOURIER in (b.prim, d.prim) or b.prim is not c.prim:
        return None
    size = _size(b) if pick is None else len(pick)
    if not size == _size(c) == _size(d):
        return None
    bv, cv, dv = (as_literal(e).vectors for e in (b, c, d))
    at = {v.eigenbits: j for j, v in enumerate(cv)}
    if pick is None:
        pick = [(i, v.phase) for i, v in enumerate(bv)]
    out = []
    for i, phase in pick:
        j = at.get(bv[i].eigenbits)
        if j is None:
            return None
        pc, pd = cv[j].phase, dv[j].phase
        if phase is not None or pc is not None or pd is not None:
            phase = math.remainder((phase or 0.0) - (pc or 0.0) + (pd or 0.0),
                                   2 * math.pi)
        out.append((j, phase))
    return out


class _Chain:
    """The output basis of a run of fused translations, composed lazily.

    It starts as the first op's ``b_out``. ``picks[k]`` is None while
    element k is ``elems[k]`` itself, else a list whose entry i is
    ``(j, phase)``: the run's vector i there is vector j of ``elems[k]``
    with that phase.
    """

    def __init__(self, head: QwOp):
        self.head = head
        self.elems: tuple[BasisElement, ...] = head.attrs["b_out"].elements
        self.picks: list[Optional[list]] = [None] * len(self.elems)

    def fuse(self, c: Basis, d: Basis) -> bool:
        """Compose ``c >> d`` onto the run; False, changing nothing, where
        the rule does not apply."""
        if not len(self.elems) == len(c.elements) == len(d.elements):
            return False
        picks = []
        for b, pick, ck, dk in zip(self.elems, self.picks, c.elements,
                                   d.elements):
            if not b.dim == ck.dim == dk.dim:
                return False
            if pick is None and b == ck:
                picks.append(None)
                continue
            pick = _compose_literal(b, pick, ck, dk)
            if pick is None:
                return False
            picks.append(pick)
        self.elems, self.picks = d.elements, picks
        return True

    def basis(self) -> Basis:
        out = []
        for e, pick in zip(self.elems, self.picks):
            if pick is not None:
                ev = as_literal(e).vectors
                e = BasisLiteral(tuple(BasisVector(e.prim, ev[j].eigenbits, ph)
                                       for j, ph in pick))
            out.append(e)
        return Basis(tuple(out))


DROPPABLE = {"qbpack", "qbunpack", "bitpack", "bitunpack"}


def _canon_block(fn: QwFunc, block: QwBlock, subst: dict[int, int]) -> bool:
    """One walk of the rewrites over ``block`` and its regions; returns
    whether any fired. The rewrites: a qbunpack of a qbpack, a one-operand
    qbpack and a qbpack of a qbunpack's results are renamings and go; a
    qbtrans whose ``b_in == b_out`` goes and one fed by a qbtrans is fused
    into it; dead pack/unpack ops go."""
    changed = False
    for op in block.ops:
        for r in op.regions:
            if _canon_block(fn, r, subst):
                changed = True

    defs = _def_map(block)
    chains: dict[int, _Chain] = {}  # a run's head result -> the run
    new_ops: list[QwOp] = []
    for op in block.ops:
        op.operands = [_lookup(subst, v) for v in op.operands]
        if op.kind == "qbtrans":
            q = op.operands[0]
            if op.attrs["b_in"] == op.attrs["b_out"]:
                subst[op.results[0]] = q
                changed = True
                continue
            src = defs.get(q)
            if src is not None and src.kind == "qbtrans":
                chain = chains.get(q) or _Chain(src)
                if chain.fuse(op.attrs["b_in"], op.attrs["b_out"]):
                    chains[q] = chain
                    subst[op.results[0]] = q
                    changed = True
                    continue
        elif op.kind == "qbunpack":
            src = defs.get(op.operands[0])
            if src is not None and src.kind == "qbpack":
                src_dims = tuple(fn.types[v].dim for v in src.operands)
                if src_dims == tuple(op.attrs["sizes"]):
                    subst.update(zip(op.results, src.operands))
                    changed = True
                    continue
        elif op.kind == "qbpack":
            if len(op.operands) == 1:
                subst[op.results[0]] = op.operands[0]
                changed = True
                continue
            src = defs.get(op.operands[0])
            if src is not None and src.kind == "qbunpack" \
                    and list(src.results) == op.operands:
                subst[op.results[0]] = src.operands[0]
                changed = True
                continue
        new_ops.append(op)

    # A fused head whose composite is its input goes in the next walk.
    for chain in chains.values():
        chain.head.attrs = {**chain.head.attrs, "b_out": chain.basis()}

    # Drop dead pure-renaming pack/unpack ops (removing a dead pack
    # releases its operands for their real consumer).
    block.ops = new_ops
    counts: dict[int, int] = {}
    _use_counts(block, counts, subst)
    kept = [op for op in block.ops
            if not (op.kind in DROPPABLE and op.results
                    and all(counts.get(r, 0) == 0 for r in op.results))]
    changed = changed or len(kept) < len(block.ops)
    block.ops = kept
    return changed


# ---------------------------------------------------------------------------
# Inlining


def _iter_ops(block: QwBlock):
    for op in block.ops:
        yield op
        for r in op.regions:
            yield from _iter_ops(r)


def count_calls(m: QwModule) -> tuple[int]:
    """(call count,) across all functions."""
    return (sum(op.kind == "call" for fn in m.functions.values()
                for op in _iter_ops(fn.block)),)


def _clone_into(fn: QwFunc, src_fn: QwFunc, block: QwBlock) -> QwBlock:
    """A copy of ``src_fn``'s ``block``, regions included, with fresh values
    of ``fn``."""
    return _clone_block(fn, src_fn, block, {})


def _clone_block(fn: QwFunc, src_fn: QwFunc, block: QwBlock,
                 remap: dict[int, int]) -> QwBlock:
    """``_clone_into``, with ``remap`` mapping each value of ``src_fn``
    copied so far to its copy. A module-level function rather than a
    closure, which would hold itself in a reference cycle."""
    nb = QwBlock()
    for a in block.args:
        na = fn.new_value(src_fn.types[a])
        remap[a] = na
        nb.args.append(na)
    for o in block.ops:
        results = fn.emit(nb, o.kind, [remap[v] for v in o.operands],
                          [src_fn.types[r] for r in o.results], o.attrs,
                          [_clone_block(fn, src_fn, r, remap)
                           for r in o.regions])
        remap.update(zip(o.results, results))
    return nb


def inline(m: QwModule) -> None:
    """Flatten and canonicalize every function, in module order.

    ``m`` must list each function after its callees, as ``qwir.verify``
    holds, so every callee is flat before its callers are (``_flatten``).
    Each function's calls are spliced once, so a call that breaks the order
    cannot make this loop forever: it is left in place, for ``verify`` to
    reject.
    """
    for fn in list(m.functions.values()):
        _flatten(m, fn)


def _flatten(m: QwModule, fn: QwFunc) -> None:
    """Splice every call of ``fn``, whose callees are all flat, then
    canonicalize it: the one canonicalization each function gets."""
    subst: dict[int, int] = {}
    _splice_calls(m, fn, fn.block, subst)
    _canonicalize_fn(fn, subst)


def _splice_calls(m: QwModule, fn: QwFunc, block: QwBlock,
                  subst: dict[int, int]) -> None:
    """Replace each call in ``block`` and its regions by a copy of the flat
    body of the function it runs.

    ``subst`` maps the body's args to the call's operands and the call's
    results to the values the body returns.
    """
    ops: list[QwOp] = []
    for op in block.ops:
        if op.kind == "call":
            callee = specialize(m, op)
            body = _clone_into(fn, callee, callee.block)
            subst.update(zip(body.args, op.operands))
            subst.update(zip(op.results, body.ops[-1].operands))
            ops += body.ops[:-1]
            continue
        for r in op.regions:
            _splice_calls(m, fn, r, subst)
        ops.append(op)
    block.ops = ops


def prune_unreachable(m: QwModule) -> None:
    """Keep the entry alone: once ``m`` is inlined it calls nothing."""
    m.functions = {m.entry: m.entry_fn}


# ---------------------------------------------------------------------------
# Specialization


def _form_name(call: QwOp) -> str:
    """The name of the function ``call`` runs. An adjoint or predicated form
    spells its whole (callee, adj, pred) key, joined by ``.``, which no
    identifier holds, so ``m.functions`` is the cache of forms."""
    pred = call.attrs.get("pred")
    return (call.attrs["sym"] + (".adj" if call.attrs.get("adj") else "")
            + ("" if pred is None else f".pred{pred}"))


def specialize(m: QwModule, call: QwOp) -> QwFunc:
    """The function ``call`` runs: its callee, or the callee's adjoint and/or
    predicated form, which is made from the callee's body the first time a
    call asks for it."""
    name = _form_name(call)
    if name not in m.functions:
        callee = m.functions[call.attrs["sym"]]
        fn = QwFunc(name, [], [], True, QwBlock())
        block = _clone_into(fn, callee, callee.block)
        if call.attrs.get("adj"):
            block = adjoint_block(fn, block)
        if call.attrs.get("pred") is not None:
            block = predicate_block(fn, block, call.attrs["pred"])
        fn.block, fn.params = block, list(block.args)
        fn.result_types = [fn.types[v] for v in block.ops[-1].operands]
        m.functions[name] = fn
    return m.functions[name]
