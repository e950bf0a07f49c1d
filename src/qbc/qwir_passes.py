"""
Rewrites on the basis-level IR: adjointing and predicating single blocks,
lambda lifting, canonicalization, inlining, and the function-specialization
closure that determines which (adjoint, controls) variants must exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bases import Basis, BasisLiteral, BasisVector, Prim
from .qwir import (
    QwBlock, QwFunc, QwModule, QwOp, bit, func, is_stationary, qubit,
)


class PassError(Exception):
    pass


SWAP_IN = BasisLiteral((BasisVector(Prim.STD, "01"), BasisVector(Prim.STD, "10")))
SWAP_OUT = BasisLiteral((BasisVector(Prim.STD, "10"), BasisVector(Prim.STD, "01")))


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
            raise PassError(f"op {op.kind} is not adjointable")

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
        results = [fn.new_value(fn.types[r]) for r in op.results]
        new.ops.append(QwOp(op.kind, [val_map[v] for v in op.operands], results,
                            dict(op.attrs), list(op.regions)))
        for old, nv in zip(op.results, results):
            val_map[old] = nv

    term_qubits = [v for v in term.operands if fn.types[v].kind == "qubit"]
    if len(term_qubits) != len(qubit_args):
        raise PassError("block does not return its qubit arguments")
    for (_, new_arg), old_out in zip(qubit_args, term_qubits):
        val_map[old_out] = new_arg

    for op in reversed(quantum_ops):
        _emit_adjoint(fn, new, op, val_map)

    out_ops = []
    for old_arg, _ in qubit_args:
        out_ops.append(val_map[old_arg])
    new.ops.append(QwOp(term.kind, out_ops, [], {}, []))
    return new


def _emit_adjoint(fn: QwFunc, new: QwBlock, op: QwOp, val_map: dict[int, int]) -> None:
    t = fn.types
    if op.kind == "qbtrans":
        q = op.operands[0]
        r = op.results[0]
        nr = fn.new_value(t[q])
        angles = [val_map[a] for a in op.operands[1:]]
        new.ops.append(QwOp(
            "qbtrans", [val_map[r]] + angles, [nr],
            {"b_in": op.attrs["b_out"], "b_out": op.attrs["b_in"]},
        ))
        val_map[q] = nr
    elif op.kind == "qbpack":
        r = op.results[0]
        sizes = tuple(t[v].dim for v in op.operands)
        results = [fn.new_value(t[v]) for v in op.operands]
        new.ops.append(QwOp("qbunpack", [val_map[r]], results, {"sizes": sizes}))
        for old, nv in zip(op.operands, results):
            val_map[old] = nv
    elif op.kind == "qbunpack":
        q = op.operands[0]
        nr = fn.new_value(t[q])
        new.ops.append(QwOp("qbpack", [val_map[r] for r in op.results], [nr]))
        val_map[q] = nr
    elif op.kind == "embed":
        q, r = op.operands[0], op.results[0]
        nr = fn.new_value(t[q])
        # Bennett embeddings and sign flips are self-adjoint.
        new.ops.append(QwOp("embed", [val_map[r]], [nr], dict(op.attrs)))
        val_map[q] = nr
    elif op.kind == "call":
        q, r = op.operands[-1], op.results[0]
        caps = [val_map[c] for c in op.operands[:-1]]
        nr = fn.new_value(t[q])
        attrs = dict(op.attrs)
        attrs["adj"] = not attrs.get("adj", False)
        new.ops.append(QwOp("call", caps + [val_map[r]], [nr], attrs))
        val_map[q] = nr
    elif op.kind == "call_indirect":
        fv, q = op.operands[0], op.operands[-1]
        r = op.results[0]
        adj_fv = fn.new_value(t[fv])
        new.ops.append(QwOp("func_adj", [val_map[fv]], [adj_fv]))
        nr = fn.new_value(t[q])
        new.ops.append(QwOp("call_indirect", [adj_fv, val_map[r]], [nr]))
        val_map[q] = nr
    else:
        raise PassError(f"op {op.kind} is not adjointable")


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
            raise PassError(f"cannot analyze qubit indices through {op.kind}")
    return idx


def _undo_swaps(perm: list[int]) -> list[tuple[int, int]]:
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
        raise PassError("predication expects a single qubit argument")
    n = fn.types[qubit_args[0]].dim
    for a in block.args:
        if fn.types[a].kind == "qubit":
            wide = fn.new_value(qubit(p + n))
            new.args.append(wide)
            pred_q = fn.new_value(qubit(p))
            body_q = fn.new_value(qubit(n))
            new.ops.append(QwOp("qbunpack", [wide], [pred_q, body_q], {"sizes": (p, n)}))
            val_map[a] = body_q
        else:
            na = fn.new_value(fn.types[a])
            new.args.append(na)
            val_map[a] = na

    def pred_apply(kind: str, body_vals: list[int], attrs: dict,
                   extra_pre: list[int] = ()) -> list[int]:
        """pack pred+body, run the predicated op, unpack, return body values."""
        nonlocal pred_q
        dims = [fn.types[v].dim for v in body_vals]
        packed = fn.new_value(qubit(p + sum(dims)))
        new.ops.append(QwOp("qbpack", [pred_q] + body_vals, [packed]))
        out = fn.new_value(qubit(p + sum(dims)))
        new.ops.append(QwOp(kind, list(extra_pre) + [packed], [out], attrs))
        pred_q = fn.new_value(qubit(p))
        outs = [fn.new_value(qubit(d)) for d in dims]
        new.ops.append(QwOp("qbunpack", [out], [pred_q] + outs,
                            {"sizes": tuple([p] + dims)}))
        return outs

    for op in block.ops[:-1]:
        if is_stationary(op, fn):
            results = [fn.new_value(fn.types[r]) for r in op.results]
            new.ops.append(QwOp(op.kind, [val_map[v] for v in op.operands],
                                results, dict(op.attrs), list(op.regions)))
            for old, nv in zip(op.results, results):
                val_map[old] = nv
        elif op.kind == "qbtrans":
            b_in: Basis = op.attrs["b_in"]
            b_out: Basis = op.attrs["b_out"]
            angles = [val_map[a] for a in op.operands[1:]]
            q = val_map[op.operands[0]]
            dims = [fn.types[q].dim]
            packed = fn.new_value(qubit(p + dims[0]))
            new.ops.append(QwOp("qbpack", [pred_q, q], [packed]))
            out = fn.new_value(qubit(p + dims[0]))
            new.ops.append(QwOp(
                "qbtrans", [packed] + angles, [out],
                {"b_in": Basis(pred.elements + b_in.elements),
                 "b_out": Basis(pred.elements + b_out.elements)},
            ))
            pred_q = fn.new_value(qubit(p))
            nq = fn.new_value(qubit(dims[0]))
            new.ops.append(QwOp("qbunpack", [out], [pred_q, nq],
                                {"sizes": (p, dims[0])}))
            val_map[op.results[0]] = nq
        elif op.kind in ("qbpack", "qbunpack"):
            results = [fn.new_value(fn.types[r]) for r in op.results]
            new.ops.append(QwOp(op.kind, [val_map[v] for v in op.operands],
                                results, dict(op.attrs)))
            for old, nv in zip(op.results, results):
                val_map[old] = nv
        elif op.kind == "embed":
            attrs = dict(op.attrs)
            attrs["pred"] = _concat_pred(pred, attrs.get("pred"))
            (nq,) = pred_apply("embed", [val_map[op.operands[0]]], attrs)
            val_map[op.results[0]] = nq
        elif op.kind == "call":
            attrs = dict(op.attrs)
            attrs["pred"] = _concat_pred(pred, attrs.get("pred"))
            caps = [val_map[c] for c in op.operands[:-1]]
            (nq,) = pred_apply("call", [val_map[op.operands[-1]]], attrs,
                               extra_pre=caps)
            val_map[op.results[0]] = nq
        elif op.kind == "call_indirect":
            fv = val_map[op.operands[0]]
            pfv = fn.new_value(fn.types[op.operands[0]])
            new.ops.append(QwOp("func_pred", [fv], [pfv], {"basis": pred}))
            (nq,) = pred_apply("call_indirect", [val_map[op.operands[-1]]], {},
                               extra_pre=[pfv])
            val_map[op.results[0]] = nq
        else:
            raise PassError(f"op {op.kind} cannot be predicated")

    # Undo renaming-based swaps outside the predicated space.
    out_vals = [val_map[v] for v in term.operands if fn.types[v].kind == "qubit"]
    perm: list[int] = []
    for v in term.operands:
        if fn.types[v].kind == "qubit":
            perm.extend(index[v])
    swaps = _undo_swaps(perm)
    if swaps:
        packed = fn.new_value(qubit(n))
        new.ops.append(QwOp("qbpack", out_vals, [packed]))
        singles = [fn.new_value(qubit(1)) for _ in range(n)]
        new.ops.append(QwOp("qbunpack", [packed], list(singles), {"sizes": (1,) * n}))
        for (i, j) in swaps:
            a, b = singles[i], singles[j]
            pair = fn.new_value(qubit(2))
            new.ops.append(QwOp("qbpack", [a, b], [pair]))
            swapped = fn.new_value(qubit(2))
            new.ops.append(QwOp("qbtrans", [pair], [swapped], {
                "b_in": Basis((SWAP_IN,)), "b_out": Basis((SWAP_OUT,)),
            }))
            na, nb = fn.new_value(qubit(1)), fn.new_value(qubit(1))
            new.ops.append(QwOp("qbunpack", [swapped], [na, nb], {"sizes": (1, 1)}))
            wide = fn.new_value(qubit(p + 2))
            new.ops.append(QwOp("qbpack", [pred_q, na, nb], [wide]))
            swapped2 = fn.new_value(qubit(p + 2))
            new.ops.append(QwOp("qbtrans", [wide], [swapped2], {
                "b_in": Basis(pred.elements + (SWAP_IN,)),
                "b_out": Basis(pred.elements + (SWAP_OUT,)),
            }))
            pred_q = fn.new_value(qubit(p))
            na2, nb2 = fn.new_value(qubit(1)), fn.new_value(qubit(1))
            new.ops.append(QwOp("qbunpack", [swapped2], [pred_q, na2, nb2],
                                {"sizes": (p, 1, 1)}))
            singles[i], singles[j] = na2, nb2
        out_vals = singles
    final = fn.new_value(qubit(p + n))
    new.ops.append(QwOp("qbpack", [pred_q] + out_vals, [final]))
    new.ops.append(QwOp(term.kind, [final], [], {}, []))
    return new


# ---------------------------------------------------------------------------
# Lambda lifting


def lift_lambdas(m: QwModule) -> None:
    counter = [0]
    for name in list(m.functions):
        fn = m.functions[name]
        _lift_in_block(m, fn, fn.block, counter)


def _lift_in_block(m: QwModule, fn: QwFunc, block: QwBlock, counter: list[int]) -> None:
    for op in block.ops:
        for region in op.regions:
            _lift_in_block(m, fn, region, counter)
        if op.kind == "lambda":
            _lift_one(m, fn, op, counter)


def _lift_one(m: QwModule, fn: QwFunc, op: QwOp, counter: list[int]) -> None:
    region = op.regions[0]
    fty = fn.types[op.results[0]]
    sym = f"{fn.name}__lambda{counter[0]}"
    counter[0] += 1
    # Region values move into a fresh function with remapped ids.
    new_fn = QwFunc(sym, [], [], fty.rev, QwBlock())
    remap: dict[int, int] = {}

    def clone_block(b: QwBlock) -> QwBlock:
        nb = QwBlock()
        for a in b.args:
            na = new_fn.new_value(fn.types[a])
            remap[a] = na
            nb.args.append(na)
        for o in b.ops:
            regions = [clone_block(r) for r in o.regions]
            results = []
            for r in o.results:
                nr = new_fn.new_value(fn.types[r])
                remap[r] = nr
                results.append(nr)
            nb.ops.append(QwOp(o.kind, [remap[v] for v in o.operands], results,
                               dict(o.attrs), regions))
        return nb

    new_fn.block = clone_block(region)
    new_fn.params = list(new_fn.block.args)
    term = new_fn.block.ops[-1]
    term.kind = "ret"
    new_fn.result_types = [new_fn.types[v] for v in term.operands]
    m.functions[sym] = new_fn
    op.kind = "func_const"
    op.attrs = {"sym": sym}
    op.regions = []


# ---------------------------------------------------------------------------
# Canonicalization


def canonicalize_ir(m: QwModule) -> None:
    changed = True
    while changed:
        changed = False
        for fn in list(m.functions.values()):
            if _canon_block(m, fn, fn.block):
                changed = True


def _def_map(block: QwBlock) -> dict[int, QwOp]:
    defs: dict[int, QwOp] = {}
    for op in block.ops:
        for r in op.results:
            defs[r] = op
    return defs


def _use_counts(block: QwBlock, counts: dict[int, int]) -> None:
    for op in block.ops:
        for v in op.operands:
            counts[v] = counts.get(v, 0) + 1
        for r in op.regions:
            _use_counts(r, counts)


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


def _canon_block(m: QwModule, fn: QwFunc, block: QwBlock) -> bool:
    changed = False
    for op in block.ops:
        for r in op.regions:
            if _canon_block(m, fn, r):
                changed = True

    defs = _def_map(block)
    new_ops: list[QwOp] = []
    rewrote = False
    for op in block.ops:
        if op.kind == "call_indirect":
            resolved = _resolve_callee(defs, op.operands[0])
            if resolved is not None:
                sym, adj, pred, caps = resolved
                new_ops.append(QwOp(
                    "call", caps + op.operands[1:], op.results,
                    {"sym": sym, "adj": adj, "pred": pred},
                ))
                rewrote = True
                continue
            cond_op = defs.get(op.operands[0])
            if cond_op is not None and cond_op.kind == "cond" \
                    and len(cond_op.results) == 1:
                _push_call_into_cond(fn, cond_op, op)
                new_ops.append(op)  # replaced in place by push
                rewrote = True
                continue
        if op.kind == "func_adj":
            inner = defs.get(op.operands[0])
            if inner is not None and inner.kind == "func_adj":
                _replace_uses(block, op.results[0], inner.operands[0])
                rewrote = True
                continue
        if op.kind == "qbunpack":
            src = defs.get(op.operands[0])
            if src is not None and src.kind == "qbpack":
                src_dims = tuple(fn.types[v].dim for v in src.operands)
                if src_dims == tuple(op.attrs["sizes"]):
                    for r, v in zip(op.results, src.operands):
                        _replace_uses(block, r, v)
                    rewrote = True
                    continue
        if op.kind == "qbpack":
            if len(op.operands) == 1:
                _replace_uses(block, op.results[0], op.operands[0])
                rewrote = True
                continue
            srcs = {id(defs.get(v)) for v in op.operands}
            if len(srcs) == 1:
                src = defs.get(op.operands[0])
                if src is not None and src.kind == "qbunpack" \
                        and list(src.results) == list(op.operands):
                    _replace_uses(block, op.results[0], src.operands[0])
                    rewrote = True
                    continue
        new_ops.append(op)
    block.ops = new_ops

    # Drop dead stationary ops and dead pure-renaming pack/unpack ops
    # (removing a dead pack releases its operands for their real consumer).
    counts: dict[int, int] = {}
    _use_counts(block, counts)
    kept = []
    for op in block.ops:
        dead = op.results and all(counts.get(r, 0) == 0 for r in op.results)
        if dead and op.kind in ("func_const", "func_adj", "func_pred",
                                "fconst", "lambda", "qbpack", "qbunpack",
                                "bitpack", "bitunpack"):
            rewrote = True
            continue
        kept.append(op)
    block.ops = kept
    return changed or rewrote


def _replace_uses(block: QwBlock, old: int, new: int) -> None:
    for op in block.ops:
        op.operands = [new if v == old else v for v in op.operands]
        for r in op.regions:
            _replace_uses(r, old, new)


def _push_call_into_cond(fn: QwFunc, cond_op: QwOp, call_op: QwOp) -> None:
    """Clone a call_indirect of a cond's function result into both branches."""
    extra_args = call_op.operands[1:]
    new_results = []
    for r in call_op.results:
        new_results.append(r)
    for region in cond_op.regions:
        term = region.ops[-1]
        (branch_fv,) = term.operands
        inner_results = [fn.new_value(fn.types[r]) for r in call_op.results]
        region.ops.insert(
            len(region.ops) - 1,
            QwOp("call_indirect", [branch_fv] + list(extra_args), inner_results),
        )
        term.operands = list(inner_results)
    cond_op.results = list(call_op.results)
    # The call op itself dissolves: its results now come from the cond.
    call_op.kind = "nop"
    call_op.operands = []
    call_op.results = []


def _strip_nops(m: QwModule) -> None:
    def strip(block: QwBlock):
        block.ops = [op for op in block.ops if op.kind != "nop"]
        for op in block.ops:
            for r in op.regions:
                strip(r)

    for fn in m.functions.values():
        strip(fn.block)


# ---------------------------------------------------------------------------
# Inlining


def count_calls(m: QwModule) -> tuple[int, int]:
    """(direct call count, indirect call count) across all functions."""
    direct = indirect = 0

    def walk(block: QwBlock):
        nonlocal direct, indirect
        for op in block.ops:
            if op.kind == "call":
                direct += 1
            elif op.kind == "call_indirect":
                indirect += 1
            for r in op.regions:
                walk(r)

    for fn in m.functions.values():
        walk(fn.block)
    return direct, indirect


def _clone_into(fn: QwFunc, src_fn: QwFunc, block: QwBlock) -> QwBlock:
    remap: dict[int, int] = {}

    def clone(b: QwBlock) -> QwBlock:
        nb = QwBlock()
        for a in b.args:
            na = fn.new_value(src_fn.types[a])
            remap[a] = na
            nb.args.append(na)
        for o in b.ops:
            regions = [clone(r) for r in o.regions]
            results = []
            for r in o.results:
                nr = fn.new_value(src_fn.types[r])
                remap[r] = nr
                results.append(nr)
            nb.ops.append(QwOp(o.kind, [remap[v] for v in o.operands], results,
                               dict(o.attrs), regions))
        return nb

    return clone(block)


def specialize_block(m: QwModule, fn: QwFunc, callee: QwFunc,
                     adj: bool, pred: Optional[Basis]) -> QwBlock:
    """Clone callee's block into fn's value space, adjointed/predicated."""
    block = _clone_into(fn, callee, callee.block)
    if adj:
        block = adjoint_block(fn, block)
    if pred is not None:
        block = predicate_block(fn, block, pred)
    return block


def inline(m: QwModule, max_rounds: int = 1000) -> None:
    """Inline direct calls (transforming callees for adj/pred) to fixpoint."""
    canonicalize_ir(m)
    _strip_nops(m)
    for _ in range(max_rounds):
        target = None
        for fn in m.functions.values():
            found = _find_call(fn.block)
            if found is not None:
                target = (fn, *found)
                break
        if target is None:
            break
        fn, block, i = target
        op = block.ops[i]
        callee = m.functions[op.attrs["sym"]]
        spliced = specialize_block(
            m, fn, callee, op.attrs.get("adj", False), op.attrs.get("pred")
        )
        term = spliced.ops[-1]
        block.ops[i : i + 1] = spliced.ops[:-1]
        for arg, operand in zip(spliced.args, op.operands):
            _replace_uses_fn(fn, arg, operand)
        for old, new in zip(op.results, term.operands):
            _replace_uses_fn(fn, old, new)
        canonicalize_ir(m)
        _strip_nops(m)
    else:
        raise PassError("inlining did not converge")
    prune_unreachable(m)


def _replace_uses_fn(fn: QwFunc, old: int, new: int) -> None:
    _replace_uses(fn.block, old, new)


def _find_call(block: QwBlock) -> Optional[tuple[QwBlock, int]]:
    for i, op in enumerate(block.ops):
        if op.kind == "call":
            return block, i
        for r in op.regions:
            found = _find_call(r)
            if found is not None:
                return found
    return None


def prune_unreachable(m: QwModule) -> None:
    reachable: set[str] = set()
    work = [m.entry]
    while work:
        name = work.pop()
        if name in reachable or name not in m.functions:
            continue
        reachable.add(name)

        def scan(block: QwBlock):
            for op in block.ops:
                sym = op.attrs.get("sym")
                if sym is not None and sym not in reachable:
                    work.append(sym)
                for r in op.regions:
                    scan(r)

        scan(m.functions[name].block)
    m.functions = {k: v for k, v in m.functions.items() if k in reachable}


# ---------------------------------------------------------------------------
# Specialization analysis (transitive closure over the call graph)


@dataclass(frozen=True, order=True)
class SpecKey:
    name: str
    adjoint: bool
    num_controls: int


def _callee_triples(m: QwModule, fn: QwFunc) -> list[SpecKey]:
    """Callee specializations requested by a forward invocation of fn."""
    out: list[SpecKey] = []
    param_sources = _param_value_sources(m)

    def resolve(block: QwBlock, defs: dict[int, QwOp], v: int,
                adj: bool, nc: int) -> list[SpecKey]:
        op = defs.get(v)
        if op is None:
            # Function-typed block argument: resolved interprocedurally.
            found = []
            for key in param_sources.get((fn.name, v), ()):
                found.append(SpecKey(key.name, key.adjoint ^ adj, key.num_controls + nc))
            return found
        if op.kind == "func_const":
            return [SpecKey(op.attrs["sym"], adj, nc)]
        if op.kind == "func_adj":
            return resolve(block, defs, op.operands[0], not adj, nc)
        if op.kind == "func_pred":
            return resolve(block, defs, op.operands[0], adj,
                           nc + op.attrs["basis"].dim)
        if op.kind == "cond":
            found = []
            for region in op.regions:
                rdefs = _all_defs(region, dict(defs))
                term = region.ops[-1]
                for t in term.operands:
                    found.extend(resolve(region, rdefs, t, adj, nc))
            return found
        return []

    def walk(block: QwBlock, defs: dict[int, QwOp]):
        for op in block.ops:
            defs_local = defs
            if op.kind == "call":
                pred = op.attrs.get("pred")
                out.append(SpecKey(
                    op.attrs["sym"], op.attrs.get("adj", False),
                    pred.dim if pred is not None else 0,
                ))
            elif op.kind == "call_indirect":
                out.extend(resolve(block, defs_local, op.operands[0], False, 0))
            for r in op.regions:
                walk(r, _all_defs(r, dict(defs_local)))
            for res in op.results:
                defs[res] = op

    defs: dict[int, QwOp] = {}
    walk(fn.block, defs)
    return out


def _all_defs(block: QwBlock, seed: dict[int, QwOp]) -> dict[int, QwOp]:
    for op in block.ops:
        for r in op.results:
            seed[r] = op
    return seed


def _param_value_sources(m: QwModule) -> dict[tuple[str, int], set]:
    """Which function values can flow into each function-typed parameter."""
    sources: dict[tuple[str, int], set] = {}
    changed = True
    while changed:
        changed = False
        for fn in m.functions.values():
            defs = _all_defs(fn.block, {})

            def resolve(v: int, adj=False, nc=0):
                op = defs.get(v)
                if op is None:
                    return {
                        SpecKey(k.name, k.adjoint ^ adj, k.num_controls + nc)
                        for k in sources.get((fn.name, v), set())
                    }
                if op.kind == "func_const":
                    return {SpecKey(op.attrs["sym"], adj, nc)}
                if op.kind == "func_adj":
                    return resolve(op.operands[0], not adj, nc)
                if op.kind == "func_pred":
                    return resolve(op.operands[0], adj, nc + op.attrs["basis"].dim)
                return set()

            def walk(block: QwBlock):
                nonlocal changed
                for op in block.ops:
                    if op.kind == "call":
                        callee = m.functions.get(op.attrs["sym"])
                        if callee is None:
                            continue
                        for pv, arg in zip(callee.params, op.operands):
                            if callee.types[pv].kind == "func":
                                got = resolve(arg)
                                slot = sources.setdefault((callee.name, pv), set())
                                if not got <= slot:
                                    slot |= got
                                    changed = True
                    for r in op.regions:
                        walk(r)

            walk(fn.block)
    return sources


def specialization_analysis(m: QwModule) -> set[SpecKey]:
    """Transitive closure of required (function, adjoint, controls) variants."""
    vertices: set[SpecKey] = {SpecKey(name, False, 0) for name in m.functions}
    edges: set[tuple[SpecKey, SpecKey]] = set()
    for fn in m.functions.values():
        base = SpecKey(fn.name, False, 0)
        for callee in _callee_triples(m, fn):
            vertices.add(callee)
            edges.add((base, callee))
    changed = True
    while changed:
        changed = False
        for fn in sorted(m.functions):
            v = SpecKey(fn, False, 0)
            for (src, dst) in sorted(edges):
                if src != v:
                    continue
                for u in sorted(vertices):
                    if u.name != fn:
                        continue
                    v2 = SpecKey(dst.name, u.adjoint ^ dst.adjoint,
                                 u.num_controls + dst.num_controls)
                    if v2 not in vertices or (u, v2) not in edges:
                        vertices.add(v2)
                        edges.add((u, v2))
                        changed = True
    # Prune anything unreachable from the entry's forward form.
    reached: set[SpecKey] = set()
    work = [SpecKey(m.entry, False, 0)]
    while work:
        v = work.pop()
        if v in reached:
            continue
        reached.add(v)
        for (src, dst) in edges:
            if src == v and dst not in reached:
                work.append(dst)
    return {v for v in vertices if v in reached}


def generate_specializations(m: QwModule) -> dict[SpecKey, str]:
    """Materialize adjoint/predicated variants for every decorated call site.

    Returns a map from specialization keys to generated symbol names. Call
    sites are retargeted at plain forward calls of the generated functions.
    """
    generated: dict[tuple, str] = {}
    out: dict[SpecKey, str] = {}
    work = True
    while work:
        work = False
        for fn in list(m.functions.values()):
            for op in _iter_ops(fn.block):
                if op.kind != "call":
                    continue
                adj = op.attrs.get("adj", False)
                pred = op.attrs.get("pred")
                if not adj and pred is None:
                    continue
                callee = m.functions[op.attrs["sym"]]
                if not callee.reversible:
                    raise PassError(
                        f"cannot specialize irreversible @{callee.name}"
                    )
                key = (callee.name, adj, str(pred) if pred is not None else "")
                if key not in generated:
                    sym = callee.name + ("__adj" if adj else "")
                    if pred is not None:
                        sym += f"__ctrl{pred.dim}_{_basis_slug(pred)}"
                    new_fn = QwFunc(sym, [], [], callee.reversible, QwBlock())
                    block = specialize_block(m, new_fn, callee, adj, pred)
                    new_fn.block = block
                    new_fn.params = list(block.args)
                    term = block.ops[-1]
                    term.kind = "ret"
                    new_fn.result_types = [new_fn.types[v] for v in term.operands]
                    m.functions[sym] = new_fn
                    generated[key] = sym
                    work = True
                nc = pred.dim if pred is not None else 0
                out[SpecKey(callee.name, adj, nc)] = generated[key]
                op.attrs = {"sym": generated[key], "adj": False, "pred": None}
    return out


def _iter_ops(block: QwBlock):
    for op in block.ops:
        yield op
        for r in op.regions:
            yield from _iter_ops(r)


def _basis_slug(b: Basis) -> str:
    import hashlib

    return hashlib.sha1(str(b).encode()).hexdigest()[:6]
