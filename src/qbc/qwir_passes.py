"""
Rewrites on the basis-level IR: adjointing and predicating single blocks,
canonicalization, the adjoint and predicated forms of functions, and
inlining. Lowering has already made every function value a module function
(``lower_ast``), so no rewrite here builds or lifts one.

The pipeline canonicalizes, inlines, then drops the functions the entry no
longer reaches (``prune_unreachable``). ``inline``
walks the call graph once from the entry, callees first: it rejects a call
cycle, and flattens each function once by splicing its callees' flat bodies.
An adjoint or predicated form is made from the callee's flat body the first
time a call asks for it (``specialize``).

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
    Basis, BasisElement, BasisLiteral, BasisVector, Prim, builtin_vectors,
)
from .diagnostics import CompileError
from .qwir import (
    QwBlock, QwFunc, QwModule, QwOp, bit, func, is_stationary, qubit,
)


# The qbtrans attributes of a two-qubit SWAP.
SWAP = {
    "b_in": Basis((BasisLiteral((BasisVector(Prim.STD, "01"),
                                 BasisVector(Prim.STD, "10"))),)),
    "b_out": Basis((BasisLiteral((BasisVector(Prim.STD, "10"),
                                  BasisVector(Prim.STD, "01"))),)),
}


def _concat_pred(outer: Optional[Basis], inner: Optional[Basis]) -> Optional[Basis]:
    # Outer predicates sit leftmost on the combined register.
    if outer is None:
        return inner
    if inner is None:
        return outer
    return Basis(outer.elements + inner.elements)


# ---------------------------------------------------------------------------
# Adjoint


ADJOINTABLE = {"qbtrans", "qbpack", "qbunpack", "embed", "call", "call_indirect"}


def _copy_op(fn: QwFunc, block: QwBlock, op: QwOp, val_map: dict[int, int]) -> None:
    """Append ``op`` to ``block`` with its operands mapped through
    ``val_map`` and fresh results, which ``val_map`` then maps op's to."""
    results = fn.emit(block, op.kind, [val_map[v] for v in op.operands],
                      [fn.types[r] for r in op.results], op.attrs, op.regions)
    val_map.update(zip(op.results, results))


def adjoint_block(fn: QwFunc, block: QwBlock) -> QwBlock:
    """Rebuild ``block`` running backward; stationary ops stay in place."""
    term = block.ops[-1]
    quantum_ops = []
    stationary_ops = []
    for op in block.ops[:-1]:
        if is_stationary(op, fn):
            stationary_ops.append(op)
        elif op.kind in ADJOINTABLE:
            quantum_ops.append(op)
        else:
            raise CompileError(f"op {op.kind} is not adjointable")

    new = QwBlock()
    val_map: dict[int, int] = {}
    # The adjoint block keeps the original argument list shape: classical
    # arguments pass through, qubit arguments become the reversed outputs.
    qubit_args = []
    for a in block.args:
        na = fn.new_value(fn.types[a])
        new.args.append(na)
        if fn.types[a].kind == "qubit":
            qubit_args.append((a, na))
        else:
            val_map[a] = na
    for op in stationary_ops:
        _copy_op(fn, new, op, val_map)

    term_qubits = [v for v in term.operands if fn.types[v].kind == "qubit"]
    if len(term_qubits) != len(qubit_args):
        raise CompileError("block does not return its qubit arguments")
    for (_, new_arg), old_out in zip(qubit_args, term_qubits):
        val_map[old_out] = new_arg

    for op in reversed(quantum_ops):
        _emit_adjoint(fn, new, op, val_map)

    fn.emit(new, term.kind, [val_map[old_arg] for old_arg, _ in qubit_args])
    return new


def _emit_adjoint(fn: QwFunc, new: QwBlock, op: QwOp, val_map: dict[int, int]) -> None:
    """Append the inverse of ``op`` to ``new``: it consumes the values
    ``val_map`` gives op's results, and ``val_map`` then maps op's qubit
    operands to its results. Every op but a pack or unpack takes its one
    qubit value last, after any captures or function value."""
    t = fn.types
    if op.kind == "qbpack":
        results = fn.emit(new, "qbunpack", [val_map[op.results[0]]],
                          [t[v] for v in op.operands],
                          {"sizes": tuple(t[v].dim for v in op.operands)})
        val_map.update(zip(op.operands, results))
        return
    if op.kind == "qbunpack":
        q = op.operands[0]
        (val_map[q],) = fn.emit(new, "qbpack", [val_map[r] for r in op.results],
                                [t[q]])
        return
    q = op.operands[-1]
    operands = [val_map[v] for v in op.operands[:-1]] + [val_map[op.results[0]]]
    attrs = op.attrs
    if op.kind == "qbtrans":
        attrs = {"b_in": attrs["b_out"], "b_out": attrs["b_in"]}
    elif op.kind == "call":
        attrs = {**attrs, "adj": not attrs.get("adj", False)}
    elif op.kind == "call_indirect":
        (operands[0],) = fn.emit(new, "func_adj", operands[:1], [t[op.operands[0]]])
    # Bennett embeddings and sign flips are self-adjoint.
    (val_map[q],) = fn.emit(new, op.kind, operands, [t[q]], attrs)


# ---------------------------------------------------------------------------
# Qubit index analysis and predication


def qubit_index_analysis(fn: QwFunc, block: QwBlock) -> dict[int, tuple[int, ...]]:
    """Map each qubit value to the input positions it carries (renaming map)."""
    idx: dict[int, tuple[int, ...]] = {}
    counter = 0
    for a in block.args:
        if fn.types[a].kind == "qubit":
            d = fn.types[a].dim
            idx[a] = tuple(range(counter, counter + d))
            counter += d
    for op in block.ops[:-1]:
        if is_stationary(op, fn):
            continue
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
        elif op.kind in ("qbtrans", "embed"):
            idx[op.results[0]] = idx[op.operands[0]]
        elif op.kind in ("call", "call_indirect"):
            qs = [v for v in op.operands if fn.types[v].kind == "qubit"]
            if len(qs) == 1 and op.results and fn.types[op.results[0]].kind == "qubit":
                idx[op.results[0]] = idx[qs[0]]
        else:
            raise CompileError(f"cannot analyze qubit indices through {op.kind}")
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
    """Rebuild ``block`` so it acts only inside span(pred) of fresh qubits.

    Every non-stationary op gets the predicate prepended; renaming-based
    swaps are undone outside the predicated space with an uncontrolled SWAP
    followed by a predicated SWAP per transposition.
    """
    p = pred.dim
    term = block.ops[-1]
    index = qubit_index_analysis(fn, block)

    new = QwBlock()
    val_map: dict[int, int] = {}
    qubit_args = [a for a in block.args if fn.types[a].kind == "qubit"]
    if len(qubit_args) != 1:
        raise CompileError("predication expects a single qubit argument")
    n = fn.types[qubit_args[0]].dim
    for a in block.args:
        if fn.types[a].kind == "qubit":
            wide = fn.new_value(qubit(p + n))
            new.args.append(wide)
            pred_q, val_map[a] = fn.emit(new, "qbunpack", [wide],
                                         [qubit(p), qubit(n)], {"sizes": (p, n)})
        else:
            na = fn.new_value(fn.types[a])
            new.args.append(na)
            val_map[a] = na

    def pred_apply(kind: str, body_vals: list[int], attrs: dict, pre=(),
                   predicated: bool = True) -> list[int]:
        """Pack the predicate and ``body_vals``, run ``kind`` on ``pre``
        then the packed value, unpack, and return the new body values. A
        qbtrans gets the predicate prepended to its bases. With
        ``predicated=False`` the op runs on ``body_vals`` alone."""
        nonlocal pred_q
        if predicated:
            body_vals = [pred_q] + body_vals
            if kind == "qbtrans":
                attrs = {k: Basis(pred.elements + attrs[k].elements)
                         for k in ("b_in", "b_out")}
        dims = [fn.types[v].dim for v in body_vals]
        (packed,) = fn.emit(new, "qbpack", body_vals, [qubit(sum(dims))])
        (out,) = fn.emit(new, kind, [*pre, packed], [qubit(sum(dims))], attrs)
        outs = fn.emit(new, "qbunpack", [out], [qubit(d) for d in dims],
                       {"sizes": tuple(dims)})
        if predicated:
            pred_q = outs.pop(0)
        return outs

    for op in block.ops[:-1]:
        if is_stationary(op, fn) or op.kind in ("qbpack", "qbunpack"):
            _copy_op(fn, new, op, val_map)
            continue
        if op.kind == "qbtrans":
            (nq,) = pred_apply("qbtrans", [val_map[op.operands[0]]], op.attrs)
        elif op.kind in ("embed", "call"):
            attrs = {**op.attrs, "pred": _concat_pred(pred, op.attrs.get("pred"))}
            (nq,) = pred_apply(op.kind, [val_map[op.operands[-1]]], attrs,
                               pre=[val_map[c] for c in op.operands[:-1]])
        elif op.kind == "call_indirect":
            fv = op.operands[0]
            pfv = fn.emit(new, "func_pred", [val_map[fv]], [fn.types[fv]],
                          {"basis": pred})
            (nq,) = pred_apply("call_indirect", [val_map[op.operands[-1]]], {},
                               pre=pfv)
        else:
            raise CompileError(f"op {op.kind} cannot be predicated")
        val_map[op.results[0]] = nq

    # Undo renaming-based swaps outside the predicated space.
    out_vals = [val_map[v] for v in term.operands if fn.types[v].kind == "qubit"]
    perm: list[int] = []
    for v in term.operands:
        if fn.types[v].kind == "qubit":
            perm.extend(index[v])
    swaps = undo_swaps(perm)
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


def _resolve_callee(defs: dict[int, QwOp], v: int):
    """Peel func_adj/func_pred wrappers down to a func_const, if statically known."""
    adj = False
    preds: list[Basis] = []
    while True:
        op = defs.get(v)
        if op is None:
            return None
        if op.kind == "func_adj":
            adj = not adj
            v = op.operands[0]
        elif op.kind == "func_pred":
            preds.append(op.attrs["basis"])
            v = op.operands[0]
        elif op.kind == "func_const":
            pred = None
            for b in reversed(preds):
                pred = _concat_pred(b, pred)
            return op.attrs["sym"], adj, pred, list(op.operands)
        else:
            return None


def _vectors(e: BasisElement) -> tuple[BasisVector, ...]:
    """A literal's vectors, or a std/pm/ij builtin's in index order."""
    if isinstance(e, BasisLiteral):
        return e.vectors
    return tuple(builtin_vectors(e))


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
    bv, cv, dv = _vectors(b), _vectors(c), _vectors(d)
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
                ev = _vectors(e)
                e = BasisLiteral(tuple(BasisVector(e.prim, ev[j].eigenbits, ph)
                                       for j, ph in pick))
            out.append(e)
        return Basis(tuple(out))


DROPPABLE = {"func_const", "func_adj", "func_pred",
             "qbpack", "qbunpack", "bitpack", "bitunpack"}


def _canon_block(fn: QwFunc, block: QwBlock, subst: dict[int, int]) -> bool:
    """One walk of the rewrites over ``block`` and its regions; returns
    whether any fired. The rewrites: a call_indirect of a statically known
    function value becomes a call; a double func_adj goes; a qbunpack of a
    qbpack, a one-operand qbpack and a qbpack of a qbunpack's results are
    renamings and go; a qbtrans whose ``b_in == b_out`` goes and one fed by
    a qbtrans is fused into it; a call_indirect, func_adj or func_pred of a
    cond's function result moves into both branches; dead stationary ops
    and pack/unpack ops go."""
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
        elif op.kind == "call_indirect":
            resolved = _resolve_callee(defs, op.operands[0])
            if resolved is not None:
                sym, adj, pred, caps = resolved
                new_ops.append(QwOp(
                    "call", caps + op.operands[1:], op.results,
                    {"sym": sym, "adj": adj, "pred": pred},
                ))
                changed = True
                continue
        elif op.kind == "func_adj":
            inner = defs.get(op.operands[0])
            if inner is not None and inner.kind == "func_adj":
                subst[op.results[0]] = inner.operands[0]
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
        if op.kind in ("call_indirect", "func_adj", "func_pred"):
            cond_op = defs.get(op.operands[0])
            if cond_op is not None and cond_op.kind == "cond" \
                    and len(cond_op.results) == 1:
                _push_into_cond(fn, cond_op, op)
                defs.update((r, cond_op) for r in op.results)
                changed = True
                continue
        new_ops.append(op)

    # A fused head whose composite is its input goes in the next walk.
    for chain in chains.values():
        chain.head.attrs = {**chain.head.attrs, "b_out": chain.basis()}

    # Drop dead stationary ops and dead pure-renaming pack/unpack ops
    # (removing a dead pack releases its operands for their real consumer).
    block.ops = new_ops
    counts: dict[int, int] = {}
    _use_counts(block, counts, subst)
    kept = [op for op in block.ops
            if not (op.kind in DROPPABLE and op.results
                    and all(counts.get(r, 0) == 0 for r in op.results))]
    changed = changed or len(kept) < len(block.ops)
    block.ops = kept
    return changed


def _push_into_cond(fn: QwFunc, cond_op: QwOp, op: QwOp) -> None:
    """Clone ``op`` (a call_indirect, func_adj or func_pred of the cond's
    function result) into both branches.

    The cond then defines op's results, and the caller drops op; this is
    sound because every function value the front end lowers has exactly one
    use. Repeated, it turns every wrapped or called function value of a
    cond, nested conds included, into a direct call inside each branch.
    """
    for region in cond_op.regions:
        term = region.ops.pop()
        term.operands = fn.emit(region, op.kind, term.operands + op.operands[1:],
                                [fn.types[r] for r in op.results], op.attrs)
        region.ops.append(term)
    cond_op.results = list(op.results)


# ---------------------------------------------------------------------------
# Inlining


def _iter_ops(block: QwBlock):
    for op in block.ops:
        yield op
        for r in op.regions:
            yield from _iter_ops(r)


def _callees(fn: QwFunc) -> list[str]:
    """The functions ``fn`` calls or takes as a value, in op order."""
    return [op.attrs["sym"] for op in _iter_ops(fn.block)
            if op.kind in ("call", "func_const")]


def count_calls(m: QwModule) -> tuple[int, int]:
    """(direct call count, indirect call count) across all functions."""
    kinds = [op.kind for fn in m.functions.values() for op in _iter_ops(fn.block)]
    return kinds.count("call"), kinds.count("call_indirect")


def _clone_into(fn: QwFunc, src_fn: QwFunc, block: QwBlock) -> QwBlock:
    remap: dict[int, int] = {}

    def clone(b: QwBlock) -> QwBlock:
        nb = QwBlock()
        for a in b.args:
            na = fn.new_value(src_fn.types[a])
            remap[a] = na
            nb.args.append(na)
        for o in b.ops:
            results = fn.emit(nb, o.kind, [remap[v] for v in o.operands],
                              [src_fn.types[r] for r in o.results], o.attrs,
                              [clone(r) for r in o.regions])
            remap.update(zip(o.results, results))
        return nb

    return clone(block)


def inline(m: QwModule) -> None:
    """Flatten the entry and every function it reaches, callees first.

    ``m`` must already be canonicalized (``canonicalize_ir``). One iterative
    depth-first walk over the calls and function values from the entry
    flattens each function as it leaves it (``_flatten``), so every callee
    is flat before its callers are. A call cycle raises ``CompileError``,
    naming it, before any function on it is flattened. Functions the entry
    does not reach are left as they are, for ``prune_unreachable``.
    """
    on_path: dict[str, bool] = {}  # True while on the path, False once flat
    path: list[str] = []
    succs = [iter([m.entry])]  # succs[i + 1] walks the callees of path[i]
    while succs:
        sym = next(succs[-1], None)
        if sym is None:
            succs.pop()
            if path:
                done = path.pop()
                _flatten(m, m.functions[done])
                on_path[done] = False
        elif on_path.get(sym):
            cycle = path[path.index(sym):] + [sym]
            raise CompileError("recursive call cycle "
                               + " -> ".join(f"@{s}" for s in cycle))
        elif sym not in on_path and sym in m.functions:
            on_path[sym] = True
            path.append(sym)
            succs.append(iter(_callees(m.functions[sym])))


def _flatten(m: QwModule, fn: QwFunc) -> None:
    """Splice every call of ``fn``, whose callees are all flat, then
    canonicalize it. Resolving a ``call_indirect`` there can expose a call,
    which names a flat function too and is spliced in the same visit."""
    subst: dict[int, int] = {}
    while _splice_calls(m, fn, fn.block, subst):
        _canonicalize_fn(fn, subst)


def _splice_calls(m: QwModule, fn: QwFunc, block: QwBlock,
                  subst: dict[int, int]) -> bool:
    """Replace each call in ``block`` and its regions by a copy of the flat
    body of the function it runs; returns whether any call was spliced.

    ``subst`` maps the body's args to the call's operands and the call's
    results to the values the body returns.
    """
    spliced = False
    ops: list[QwOp] = []
    for op in block.ops:
        if op.kind == "call":
            callee = specialize(m, op)
            body = _clone_into(fn, callee, callee.block)
            subst.update(zip(body.args, op.operands))
            subst.update(zip(op.results, body.ops[-1].operands))
            ops += body.ops[:-1]
            spliced = True
            continue
        for r in op.regions:
            spliced = _splice_calls(m, fn, r, subst) or spliced
        ops.append(op)
    block.ops = ops
    return spliced


def prune_unreachable(m: QwModule) -> None:
    reachable: set[str] = set()
    work = [m.entry]
    while work:
        name = work.pop()
        if name not in reachable and name in m.functions:
            reachable.add(name)
            work.extend(_callees(m.functions[name]))
    m.functions = {k: v for k, v in m.functions.items() if k in reachable}


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
        if not callee.reversible:
            raise CompileError(f"cannot specialize irreversible @{callee.name}")
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
