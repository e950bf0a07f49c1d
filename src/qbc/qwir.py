"""
Basis-level SSA IR with dataflow qubits.

Qubits flow through ops as linear values (each qbundle value has exactly one
use), which makes adjointing and predicating rewrites plain DAG surgery.
Functions have a single-region, single-block body; only `cond` ops carry
nested blocks, one per branch, which take no arguments and may reference
values from the enclosing block. Values are qubits and bits only: the one
edge between functions is a `call` naming a kernel, with its adjoint and
predicate as attributes, and there are no function values. A module lists
each function after every function it calls, callees first, so a verified
module holds no call cycle, and its passes walk the call graph by looping
over the module in order. A ``qbtrans`` lowered from source keeps the
translation's position in its ``pos`` attribute, which adjoint,
predication, inlining and fusion carry along, so that synthesis can point
at it.
"""

from __future__ import annotations

from typing import NamedTuple

from .ast_nodes import ClassicalFn, QpuFn
from .bases import Basis, align
from .diagnostics import CompileError
from .record import field, record


class QwTy(NamedTuple):
    """The one type from expansion to the basis IR: ``qubit[dim]`` and
    ``bit[dim]`` values, which are all the basis IR holds, and three kinds
    only the front end and lowering see: function types ``func(qubit[fin]
    -> fout_kind[fout_dim])`` (reversible when ``rev``), ``basis[dim]`` and
    ``none`` (what a discard leaves).
    There is no angle type: expansion bakes every captured angle into its
    kernel instance and lowering folds each phase into a float of a basis
    vector. The typing rules that expansion and lowering share
    follow the class, so each is written once. It is a named tuple because
    the front end makes one or two per pipe stage."""

    kind: str  # qubit | bit | basis | none | func
    dim: int = 0
    fin: int = 0
    fout_kind: str = ""
    fout_dim: int = 0
    rev: bool = False

    @property
    def out(self) -> "QwTy":
        """A function's result: ``qubit[...]``, ``bit[...]`` or ``none``."""
        return QwTy(self.fout_kind, self.fout_dim)

    def __str__(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind != "func":
            return f"{self.kind}[{self.dim}]"
        arrow = "->rev" if self.rev else "->"
        out = "()" if self.fout_kind == "none" else str(self.out)
        return f"func(qubit[{self.fin}] {arrow} {out})"


def qubit(n: int) -> QwTy:
    return QwTy("qubit", n)


def bit(n: int) -> QwTy:
    return QwTy("bit", n)


def func(fin: int, fout_kind: str, fout_dim: int, rev: bool) -> QwTy:
    return QwTy("func", 0, fin, fout_kind, fout_dim, rev)


def rev_fn(n: int) -> QwTy:
    """A translation's type, and an embed's: reversible on ``qubit[n]``."""
    return func(n, "qubit", n, True)


def measure_fn(n: int) -> QwTy:
    return func(n, "bit", n, False)


def discard_fn(n: int) -> QwTy:
    return func(n, "none", 0, False)


def embed_fn(c: ClassicalFn, mode: str) -> QwTy:
    """``c.xor`` or ``c.sign`` of an expanded classical function."""
    return rev_fn(c.embed_width(mode))


def pred_fn(p: int, f: QwTy) -> QwTy:
    """``b & f`` for a basis ``b`` of dimension ``p``: ``b``'s qubits come
    first, then ``f``'s."""
    return rev_fn(p + f.fin)


def tensor_fn(parts: list[QwTy]) -> QwTy:
    """``f1 + f2 + ...``: each part runs on its own slice of the input, and
    the results are packed in order. It is reversible when every part is;
    otherwise its result is the parts' bits, and ``none`` when every part
    discards. Expansion rejects a tensor whose parts mix the two."""
    fin = sum(t.fin for t in parts)
    fout = sum(t.fout_dim for t in parts)
    if all(t.rev and t.fout_kind == "qubit" for t in parts):
        return func(fin, "qubit", fout, True)
    kind = "bit" if any(t.fout_kind == "bit" for t in parts) else "none"
    return func(fin, kind, fout, False)


def signature(q: QpuFn) -> QwTy:
    """An expanded kernel's type: from its qubit parameter, if any, to its
    declared result. A reversible kernel that takes qubits must return as
    many, since its adjoint and its predicated form keep the width."""
    fin = sum(p.type.dim.value for p in q.params)
    kind, fout = q.ret_type.kind, q.ret_type.dim.value
    if q.reversible and fin and (kind, fout) != ("qubit", fin):
        raise CompileError(
            f"reversible kernel {q.name} takes {fin} qubit{'s' * (fin != 1)} "
            f"but returns {kind}[{fout}]", q.pos)
    return func(fin, kind, fout, q.reversible)


@record
class QwOp:
    kind: str
    operands: list[int] = field(default_factory=list)
    results: list[int] = field(default_factory=list)
    attrs: dict = field(default_factory=dict)
    regions: list["QwBlock"] = field(default_factory=list)


@record
class QwBlock:
    args: list[int] = field(default_factory=list)
    ops: list[QwOp] = field(default_factory=list)


@record
class QwFunc:
    name: str
    params: list[int]
    result_types: list[QwTy]
    reversible: bool
    block: QwBlock
    types: dict[int, QwTy] = field(default_factory=dict)
    next_id: int = 0

    def new_value(self, ty: QwTy) -> int:
        v = self.next_id
        self.next_id += 1
        self.types[v] = ty
        return v

    def emit(self, block: QwBlock, kind: str, operands=(), result_tys=(),
             attrs=None, regions=()) -> list[int]:
        """Append a ``kind`` op to ``block`` with a fresh value per result
        type, and return those values. The op keeps its own copies of the
        lists and of ``attrs``, so a caller may reuse or change them."""
        results = [self.new_value(t) for t in result_tys]
        block.ops.append(QwOp(kind, list(operands), list(results),
                              dict(attrs or {}), list(regions)))
        return results


@record
class QwModule:
    functions: dict[str, QwFunc] = field(default_factory=dict)
    classicals: dict[str, ClassicalFn] = field(default_factory=dict)
    entry: str = "main"

    @property
    def entry_fn(self) -> QwFunc:
        return self.functions[self.entry]


class VerifyError(Exception):
    pass


def op_location(fn: QwFunc, op: QwOp) -> str:
    return f"@{fn.name}:{op.kind}"


# The ops a cond's branch cannot hold, as a gate takes one condition and a
# measurement none; and the ops a reversible function cannot hold: those
# with no inverse, and the bit ops, which a function without a measurement
# has no use for, so that every op of a reversible function moves qubits.
UNCONDITIONAL = frozenset({"qbmeas", "qbdiscard", "cond"})
IRREVERSIBLE = UNCONDITIONAL | {"qbprep", "bitpack", "bitunpack"}


def verify(m: QwModule) -> None:
    """Check SSA, typing, linearity, and span invariants for every function,
    and that each call names a function listed before its caller, so no
    call cycle is left. Once only the entry is left, no call is either."""
    earlier: set[str] = set()
    for name, fn in m.functions.items():
        _verify_fn(m, fn, earlier)
        earlier.add(name)


def _verify_fn(m: QwModule, fn: QwFunc, earlier: set[str]) -> None:
    for p in fn.params:
        if p not in fn.types:
            raise VerifyError(f"@{fn.name}: untyped param %{p}")
    _verify_block(m, fn, fn.block, set(), earlier,
                  IRREVERSIBLE if fn.reversible else frozenset())
    # The adjoint and predicated forms of a reversible function take and
    # return one qubit value.
    tys = [fn.types[p] for p in fn.params]
    if fn.reversible and (len(tys) != 1 or tys[0].kind != "qubit"
                          or fn.result_types != tys):
        raise VerifyError(f"@{fn.name}: reversible, but does not take and "
                          "return one qubit value")


def _verify_block(m, fn, block, outer: set[int], earlier: set[str],
                  banned: frozenset, top: bool = True) -> dict[int, int]:
    """Verify one block; returns use counts of values from ``outer`` scope.

    Linearity of values defined directly in this block (args and op
    results) is checked here; cond regions see the enclosing scope, with
    each branch contributing one combined use per consumed outer qubit.
    No op of a ``banned`` kind may appear, and a call may only name a
    function in ``earlier``.
    """
    local = set(outer) | set(block.args)
    direct = set(block.args)
    uses: dict[int, int] = {}
    if not block.ops:
        raise VerifyError(f"@{fn.name}: empty block")
    term = block.ops[-1]
    want_term = "ret" if top else "yield"
    if term.kind != want_term:
        raise VerifyError(f"@{fn.name}: block must end with {want_term}")
    for op in block.ops:
        for v in op.operands:
            if v not in local:
                raise VerifyError(f"{op_location(fn, op)}: use of undefined %{v}")
            uses[v] = uses.get(v, 0) + 1
        if op.kind in banned:
            raise VerifyError(f"{op_location(fn, op)}: not allowed here")
        _check_op_types(m, fn, op, earlier)
        if op.kind == "cond":
            branch_outer = []
            for region in op.regions:
                r_uses = _verify_block(m, fn, region, local, earlier,
                                       banned | UNCONDITIONAL, top=False)
                yields = [fn.types[v] for v in region.ops[-1].operands]
                if yields != [fn.types[r] for r in op.results]:
                    raise VerifyError(f"{op_location(fn, op)}: a branch yields "
                                      f"{', '.join(map(str, yields)) or '()'}")
                branch_outer.append({
                    v for v in r_uses
                    if v in local and fn.types[v].kind == "qubit"
                })
            if branch_outer[0] != branch_outer[1]:
                raise VerifyError(
                    f"@{fn.name}: cond branches consume different qubits"
                )
            for v in branch_outer[0]:
                uses[v] = uses.get(v, 0) + 1
        for r in op.results:
            if r in local:
                raise VerifyError(f"{op_location(fn, op)}: %{r} redefined")
            local.add(r)
            direct.add(r)
    for v in sorted(direct):
        if fn.types[v].kind == "qubit" and uses.get(v, 0) != 1:
            raise VerifyError(
                f"@{fn.name}: qubit %{v} has {uses.get(v, 0)} uses, wants 1"
            )
    return {v: c for v, c in uses.items() if v in outer}


def _check_op_types(m: QwModule, fn: QwFunc, op: QwOp,
                    earlier: set[str]) -> None:
    t = lambda v: fn.types[v]

    def want(v, kind, dim=None, what=""):
        ty = t(v)
        if ty.kind != kind or (dim is not None and ty.dim != dim):
            raise VerifyError(
                f"{op_location(fn, op)}: {what} has type {ty}, wanted "
                f"{kind}{'' if dim is None else f'[{dim}]'}"
            )

    k = op.kind
    if k == "qbprep":
        want(op.results[0], "qubit", len(op.attrs["eigenbits"]), "result")
    elif k == "qbtrans":
        b_in: Basis = op.attrs["b_in"]
        b_out: Basis = op.attrs["b_out"]
        if b_in.dim != b_out.dim:
            raise VerifyError(f"{op_location(fn, op)}: basis dims differ")
        try:
            align(b_in, b_out)
        except CompileError as err:
            raise VerifyError(f"{op_location(fn, op)}: translation not "
                              f"span-checked ({err.message})") from None
        if len(op.operands) != 1:
            raise VerifyError(f"{op_location(fn, op)}: takes one operand, "
                              f"found {len(op.operands)}")
        want(op.operands[0], "qubit", b_in.dim, "operand")
        want(op.results[0], "qubit", b_in.dim, "result")
    elif k == "qbmeas":
        b: Basis = op.attrs["basis"]
        want(op.operands[0], "qubit", b.dim, "operand")
        want(op.results[0], "bit", b.dim, "result")
    elif k == "qbdiscard":
        want(op.operands[0], "qubit", None, "operand")
    elif k == "qbpack":
        total = 0
        for v in op.operands:
            want(v, "qubit", None, "operand")
            total += t(v).dim
        want(op.results[0], "qubit", total, "result")
    elif k == "qbunpack":
        sizes = op.attrs["sizes"]
        want(op.operands[0], "qubit", sum(sizes), "operand")
        for r, s in zip(op.results, sizes):
            want(r, "qubit", s, "result")
    elif k == "bitpack":
        total = sum(t(v).dim for v in op.operands)
        want(op.results[0], "bit", total, "result")
    elif k == "bitunpack":
        sizes = op.attrs["sizes"]
        want(op.operands[0], "bit", sum(sizes), "operand")
    elif k == "embed":
        name, pred = op.attrs["fn"], op.attrs.get("pred")
        if name not in m.classicals:
            raise VerifyError(f"{op_location(fn, op)}: unknown classical {name}")
        width = m.classicals[name].embed_width(op.attrs["mode"])
        want(op.operands[0], "qubit", width + (pred.dim if pred else 0), "operand")
        want(op.results[0], "qubit", t(op.operands[0]).dim, "result")
    elif k == "call":
        sym, pred = op.attrs["sym"], op.attrs.get("pred")
        if sym not in earlier:
            raise VerifyError(f"{op_location(fn, op)}: @{sym} is not listed "
                              f"before @{fn.name}")
        callee = m.functions[sym]
        if (op.attrs.get("adj") or pred is not None) and not callee.reversible:
            raise VerifyError(f"{op_location(fn, op)}: adjoint or predicated "
                              f"form of irreversible @{sym}")
        want_in = [callee.types[p] for p in callee.params]
        want_out = callee.result_types
        if pred is not None:
            # A predicated form takes and returns the predicate's qubits
            # first, and the callee, reversible, one qubit value.
            want_in = want_out = [qubit(want_out[0].dim + pred.dim)]
        if ([t(v) for v in op.operands] != want_in
                or [t(r) for r in op.results] != want_out):
            raise VerifyError(f"{op_location(fn, op)}: types differ from "
                              f"those of @{sym}")
    elif k == "cond":
        want(op.operands[0], "bit", 1, "flag")
        if len(op.regions) != 2:
            raise VerifyError(f"{op_location(fn, op)}: cond needs two regions")
    elif k in ("ret", "yield"):
        pass
    else:
        raise VerifyError(f"{op_location(fn, op)}: unknown op kind {k}")


# ---------------------------------------------------------------------------
# Textual form


def print_module(m: QwModule) -> str:
    lines = []
    for fn in m.functions.values():
        rev = " rev" if fn.reversible else ""
        params = ", ".join(f"%{p}: {fn.types[p]}" for p in fn.params)
        rets = ", ".join(str(t) for t in fn.result_types) or "()"
        lines.append(f"qwfunc @{fn.name}({params}) -> {rets}{rev} {{")
        _print_block(fn, fn.block, lines, "  ")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _print_block(fn: QwFunc, block: QwBlock, lines: list[str], ind: str) -> None:
    for op in block.ops:
        lines.extend(_print_op(fn, op, ind))


def _print_op(fn: QwFunc, op: QwOp, ind: str) -> list[str]:
    res = ", ".join(f"%{r}" for r in op.results)
    eq = f"{res} = " if op.results else ""
    args = ", ".join(f"%{v}" for v in op.operands)
    k = op.kind
    if k == "qbprep":
        body = f"qbprep {op.attrs['prim']} '{op.attrs['eigenbits']}'"
    elif k == "qbtrans":
        body = f"qbtrans({args}) {op.attrs['b_in']} >> {op.attrs['b_out']}"
    elif k == "qbmeas":
        body = f"qbmeas({args}) {op.attrs['basis']}"
    elif k == "embed":
        body = f"embed {op.attrs['mode']} @{op.attrs['fn']}({args})"
        if op.attrs.get("pred") is not None:
            body += f" pred({op.attrs['pred']})"
    elif k == "call":
        body = "call"
        if op.attrs.get("adj"):
            body += " adj"
        if op.attrs.get("pred") is not None:
            body += f" pred({op.attrs['pred']})"
        body += f" @{op.attrs['sym']}({args})"
    elif k == "qbunpack":
        body = f"qbunpack({args}) sizes={list(op.attrs['sizes'])}"
    elif k == "bitunpack":
        body = f"bitunpack({args}) sizes={list(op.attrs['sizes'])}"
    elif k == "cond":
        lines = [f"{ind}{eq}cond %{op.operands[0]} {{"]
        _print_block(fn, op.regions[0], lines, ind + "  ")
        lines.append(f"{ind}}} else {{")
        _print_block(fn, op.regions[1], lines, ind + "  ")
        rts = ", ".join(str(fn.types[r]) for r in op.results) or "()"
        lines.append(f"{ind}}} : {rts}")
        return lines
    else:
        body = f"{k}({args})" if op.operands or op.results else k
    if k in ("ret", "yield", "qbdiscard", "qbpack", "bitpack"):
        body = f"{k}({args})"
    line = f"{ind}{eq}{body}"
    if op.results:
        line += f" : " + ", ".join(str(fn.types[r]) for r in op.results)
    return [line]


class FnBuilder:
    """Builds one function for lowering and tests: parameters, and ops
    emitted by ``QwFunc.emit`` into the innermost open block."""

    def __init__(self, name: str, reversible: bool = False):
        self.fn = QwFunc(name, [], [], reversible, QwBlock())
        self.block_stack = [self.fn.block]

    @property
    def block(self) -> QwBlock:
        return self.block_stack[-1]

    def param(self, ty: QwTy) -> int:
        v = self.fn.new_value(ty)
        self.fn.params.append(v)
        self.fn.block.args.append(v)
        return v

    def emit(self, kind: str, operands=(), result_tys=(), attrs=None,
             regions=()) -> list[int]:
        return self.fn.emit(self.block, kind, operands, result_tys, attrs,
                            regions)

    def push_block(self) -> QwBlock:
        """Open a cond branch: an empty block, which takes no arguments."""
        b = QwBlock()
        self.block_stack.append(b)
        return b

    def pop_block(self) -> QwBlock:
        return self.block_stack.pop()

    def finish(self, result_types: list[QwTy]) -> QwFunc:
        self.fn.result_types = result_types
        return self.fn
