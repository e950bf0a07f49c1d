"""Basis-level IR: verifier, adjoint/predication rewrites,
canonicalization (fusing chained translations included), and inlining with
the adjoint/predicated forms it makes."""

import itertools
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbc.bases import (
    Basis, BasisLiteral, BasisVector, BuiltinBasis, Prim, basis,
)
from oracles import lit
from qbc.qwir import (
    FnBuilder, QwBlock, QwFunc, QwModule, QwOp, QwTy, VerifyError, bit,
    print_module, qubit, verify,
)
from qbc.qwir_passes import (
    adjoint_block, canonicalize_ir, count_calls, inline, predicate_block, prune_unreachable, qubit_index_analysis,
)

from oracles import (
    apply_unitary_at, lower_with_params, span_projector, translation_unitary,
)
from qbc.backends import emit_qasm3
from qbc.lower_ast import lower_to_ir
from qbc.pipeline import Options, _reuse, front, to_gates, to_qwir
from qbc.qcirc import print_qcirc
from test_front_fuzz import FUZZ, programs

STD, PM, IJ = Prim.STD, Prim.PM, Prim.IJ


# -- block unitary oracle -----------------------------------------------------


def block_unitary(fn: QwFunc, block: QwBlock) -> np.ndarray:
    """Brute-force unitary of a reversible block via translation matrices."""
    pos: dict[int, list[int]] = {}
    counter = 0
    for a in block.args:
        if fn.types[a].kind == "qubit":
            d = fn.types[a].dim
            pos[a] = list(range(counter, counter + d))
            counter += d
    n = counter
    u = np.eye(1 << n, dtype=complex)
    for op in block.ops[:-1]:
        if op.kind == "qbtrans":
            mat = translation_unitary(op.attrs["b_in"], op.attrs["b_out"])
            u = apply_unitary_at(u, mat, pos[op.operands[0]], n)
            pos[op.results[0]] = pos[op.operands[0]]
        elif op.kind == "qbpack":
            combined = []
            for v in op.operands:
                combined.extend(pos[v])
            pos[op.results[0]] = combined
        elif op.kind == "qbunpack":
            src = pos[op.operands[0]]
            at = 0
            for r, s in zip(op.results, op.attrs["sizes"]):
                pos[r] = src[at : at + s]
                at += s
        else:
            raise AssertionError(f"oracle cannot handle {op.kind}")
    term = block.ops[-1]
    out_positions = []
    for v in term.operands:
        out_positions.extend(pos[v])
    # Renaming moves the qubit at input position out_positions[j] to output
    # slot j; realize it as a permutation matrix.
    if out_positions != list(range(n)):
        perm = np.zeros((1 << n, 1 << n))
        for x in range(1 << n):
            y = 0
            for j, p in enumerate(out_positions):
                if (x >> (n - 1 - p)) & 1:
                    y |= 1 << (n - 1 - j)
            perm[y, x] = 1
        u = perm @ u
    return u


def simple_fn(name="f", n=2, reversible=True) -> FnBuilder:
    b = FnBuilder(name, reversible)
    b.param(qubit(n))
    return b


def trans_op(b: FnBuilder, v: int, b_in: Basis, b_out: Basis) -> int:
    (r,) = b.emit("qbtrans", [v], [qubit(b_in.dim)],
                  {"b_in": b_in, "b_out": b_out})
    return r


def test_verify_ok_simple():
    b = simple_fn()
    v = trans_op(b, b.fn.params[0], basis(BuiltinBasis(STD, 2)),
                 basis(BuiltinBasis(PM, 2)))
    b.emit("ret", [v])
    fn = b.finish([qubit(2)])
    m = QwModule({"f": fn}, entry="f")
    verify(m)


def test_emit_gives_each_op_its_own_lists_and_attrs():
    # Callers rename returned values in place (predication's swap undo);
    # that must not rewrite the op that defined them.
    fn = QwFunc("f", [], [], True, QwBlock())
    operands, attrs = [], {"sizes": (1, 1)}
    (a,) = fn.emit(fn.block, "qbprep", operands, [qubit(2)],
                   {"prim": Prim.STD, "eigenbits": "00"})
    outs = fn.emit(fn.block, "qbunpack", [a], [qubit(1), qubit(1)], attrs)
    outs[0], attrs["sizes"] = 99, ()
    operands.append(a)
    prep, unpack = fn.block.ops
    assert prep.operands == [] and unpack.results == [1, 2]
    assert unpack.attrs == {"sizes": (1, 1)}
    assert [fn.types[v] for v in (a, 1, 2)] == [qubit(2), qubit(1), qubit(1)]


def test_verify_rejects_double_use():
    b = simple_fn()
    v1 = trans_op(b, b.fn.params[0], basis(BuiltinBasis(STD, 2)),
                  basis(BuiltinBasis(PM, 2)))
    trans_op(b, b.fn.params[0], basis(BuiltinBasis(STD, 2)),
             basis(BuiltinBasis(STD, 2)))
    b.emit("ret", [v1])
    m = QwModule({"f": b.finish([qubit(2)])}, entry="f")
    with pytest.raises(VerifyError):
        verify(m)


def test_verify_rejects_span_mismatch():
    b = simple_fn(n=1)
    with pytest.raises(VerifyError):
        v = trans_op(b, b.fn.params[0], basis(lit("0")), basis(lit("1")))
        b.emit("ret", [v])
        verify(QwModule({"f": b.finish([qubit(1)])}, entry="f"))


@pytest.mark.parametrize("ty", [qubit(1), bit(1)], ids=["qubit", "bit"])
def test_verify_rejects_a_translation_with_a_second_operand(ty):
    b = simple_fn(n=1)
    second = b.param(ty)
    (v,) = b.emit("qbtrans", [b.fn.params[0], second], [qubit(1)],
                  {"b_in": basis(BuiltinBasis(STD, 1)),
                   "b_out": basis(BuiltinBasis(PM, 1))})
    b.emit("ret", [v])
    m = QwModule({"f": b.finish([qubit(1)])}, entry="f")
    with pytest.raises(VerifyError, match="qbtrans: takes one operand, found 2"):
        verify(m)


def test_verify_rejects_an_fconst_op():
    # Phases are floats inside a translation's bases; the IR has no angle
    # values and no op that makes one.
    b = simple_fn(n=1)
    b.emit("fconst", [], [QwTy("angle")], {"value": 0.5})
    b.emit("ret", [b.fn.params[0]])
    m = QwModule({"f": b.finish([qubit(1)])}, entry="f")
    with pytest.raises(VerifyError, match="unknown op kind fconst"):
        verify(m)


# -- adjoint -------------------------------------------------------------------


def make_block(ops_spec, n) -> tuple[QwFunc, QwBlock]:
    """ops_spec: list of (positions, b_in, b_out) | ('perm', order)."""
    b = FnBuilder("blk", True)
    arg = b.param(qubit(n))
    singles = b.emit("qbunpack", [arg], [qubit(1)] * n, {"sizes": (1,) * n})
    wires = list(singles)
    for spec in ops_spec:
        if spec[0] == "perm":
            order = spec[1]
            wires = [wires[i] for i in order]
            continue
        positions, b_in, b_out = spec
        (packed,) = b.emit("qbpack", [wires[p] for p in positions],
                           [qubit(len(positions))])
        moved = trans_op(b, packed, b_in, b_out)
        outs = b.emit("qbunpack", [moved], [qubit(1)] * len(positions),
                      {"sizes": (1,) * len(positions)})
        for p, nv in zip(positions, outs):
            wires[p] = nv
    (repacked,) = b.emit("qbpack", wires, [qubit(n)])
    b.emit("ret", [repacked])
    fn = b.finish([qubit(2)])
    return fn, fn.block


def random_reversible_block(rng, n, with_renaming):
    specs = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, min(n, 2) + 1))
        positions = list(rng.choice(n, size=k, replace=False))
        prim_in = Prim(rng.choice([STD, PM, IJ]))
        prim_out = Prim(rng.choice([STD, PM, IJ]))
        bits = [format(x, f"0{k}b") for x in range(1 << k)]
        order = list(bits)
        rng.shuffle(order)
        phase = float(rng.choice([0.0, math.pi / 2, -math.pi / 4]))
        vecs_in = tuple(
            BasisVector(prim_in, x, phase if i == 0 and phase else None)
            for i, x in enumerate(bits)
        )
        vecs_out = tuple(BasisVector(prim_out, x) for x in order)
        specs.append((positions, basis(BasisLiteral(vecs_in)),
                      basis(BasisLiteral(vecs_out))))
    if with_renaming:
        order = list(rng.permutation(n))
        specs.append(("perm", order))
    return make_block(specs, n)


def test_adjoint_simple_translation():
    fn, block = make_block(
        [([0, 1], basis(lit("00", "01", "10", "11")),
          basis(lit("01", "00", "11", "10")))], 2
    )
    adj = adjoint_block(fn, block)
    assert adj.ops[-1].kind == "ret"
    u = block_unitary(fn, block)
    ua = block_unitary(fn, adj)
    assert np.allclose(ua, u.conj().T, atol=1e-9)


def test_adjoint_swaps_bases():
    b = FnBuilder("f", True)
    arg = b.param(qubit(1))
    v = trans_op(b, arg, basis(BuiltinBasis(STD, 1)), basis(BuiltinBasis(PM, 1)))
    b.emit("ret", [v])
    fn = b.finish([qubit(1)])
    adj = adjoint_block(fn, fn.block)
    tr = [op for op in adj.ops if op.kind == "qbtrans"][0]
    assert tr.attrs["b_in"] == basis(BuiltinBasis(PM, 1))
    assert tr.attrs["b_out"] == basis(BuiltinBasis(STD, 1))


def test_adjoint_involution_and_inverse_random():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        fn, block = random_reversible_block(rng, n, with_renaming=bool(trial % 2))
        u = block_unitary(fn, block)
        adj = adjoint_block(fn, block)
        ua = block_unitary(fn, adj)
        assert np.allclose(ua @ u, np.eye(1 << n), atol=1e-9)
        back = adjoint_block(fn, adj)
        assert np.allclose(block_unitary(fn, back), u, atol=1e-9)


def _measuring(name, reversible):
    """A function that measures its one qubit."""
    b = FnBuilder(name, reversible)
    arg = b.param(qubit(1))
    (r,) = b.emit("qbmeas", [arg], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    b.emit("ret", [r])
    return b.finish([bit(1)])


def _in_a_branch(kind):
    """main, whose cond's then-branch measures (``qbmeas``) or holds a
    cond (``cond``)."""
    b = FnBuilder("main", False)
    (q,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    (flag,) = b.emit("qbmeas", [q], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    (w,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    regions = []
    for inner in (kind, None):
        b.push_block()
        if inner == "qbmeas":
            b.emit("qbmeas", [w], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
        elif inner == "cond":
            b.emit("cond", [flag], [], {}, [QwBlock([], [QwOp("yield")])] * 2)
        b.emit("yield", [])
        regions.append(b.pop_block())
    b.emit("cond", [flag], [], {}, regions)
    b.emit("ret", [])
    return b.finish([])


def _irreversible_adjoint_call():
    b = FnBuilder("main", False)
    (q,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    b.emit("call", [q], [bit(1)], {"sym": "g", "adj": True, "pred": None})
    b.emit("ret", [])
    return QwModule({"g": _measuring("g", False), "main": b.finish([])})


def _caller_first():
    """``_module_with_call`` listing main before the g it calls."""
    m = _module_with_call()
    m.functions = dict(reversed(m.functions.items()))
    return m


def _self_calling(name):
    """A reversible function that calls itself."""
    b = FnBuilder(name, True)
    arg = b.param(qubit(1))
    (v,) = b.emit("call", [arg], [qubit(1)],
                  {"sym": name, "adj": False, "pred": None})
    b.emit("ret", [v])
    return b.finish([qubit(1)])


def _two_qubit_params():
    b = FnBuilder("f", True)
    qs = [b.param(qubit(1)), b.param(qubit(1))]
    b.emit("ret", b.emit("qbpack", qs, [qubit(2)]))
    return b.finish([qubit(2)])


def _rev_with_bits(param: bool):
    """A reversible f that takes a bit after its qubit (``param``), or
    packs no bits into one."""
    b = FnBuilder("f", True)
    q = b.param(qubit(1))
    if param:
        b.param(bit(1))
    else:
        b.emit("bitpack", [], [bit(0)])
    b.emit("ret", [q])
    return QwModule({"f": b.finish([qubit(1)])}, entry="f")


def _unwidened_predicated_call():
    """main calls g predicated on {'1'}, but on g's own width."""
    m = _module_with_call()
    (call,) = [op for op in m.entry_fn.block.ops if op.kind == "call"]
    call.attrs["pred"] = basis(lit("1"))
    return m


def _cond_yielding(width: int):
    """main, whose cond gives qubit[1] but whose branches yield a
    qubit[width]."""
    b = FnBuilder("main", False)
    (c,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    (flag,) = b.emit("qbmeas", [c], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    (w,) = b.emit("qbprep", [], [qubit(width)], {"prim": STD, "eigenbits": "0" * width})
    regions = []
    for _ in range(2):
        b.push_block()
        b.emit("yield", [w])
        regions.append(b.pop_block())
    (r,) = b.emit("cond", [flag], [qubit(1)], {}, regions)
    (bits,) = b.emit("qbmeas", [r], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    b.emit("ret", [bits])
    return QwModule({"main": b.finish([bit(1)])})


def _embed_of_width(n):
    from qbc.ast_nodes import ClassicalFn, CVar, Num, ParamNode, TypeNode

    def bits(k):
        return TypeNode("bit", Num(k))

    cfn = ClassicalFn("c", (), (), (ParamNode("x", bits(1), None),), bits(1),
                      CVar("x"))
    b = FnBuilder("main", False)
    (q,) = b.emit("qbprep", [], [qubit(n)], {"prim": STD, "eigenbits": "0" * n})
    (r,) = b.emit("embed", [q], [qubit(n)], {"fn": "c", "mode": "xor"})
    b.emit("ret", [b.emit("qbmeas", [r], [bit(n)],
                          {"basis": basis(BuiltinBasis(STD, n))})[0]])
    return QwModule({"main": b.finish([bit(n)])}, {"c": cfn})


# What the passes after the front end assume of their input, and the front
# end guarantees: each breach is a compiler bug that ``verify`` reports.
@pytest.mark.parametrize("module, message", [
    (lambda: QwModule({"f": _measuring("f", True)}, entry="f"),
     "@f:qbmeas: not allowed here"),
    (lambda: QwModule({"main": _in_a_branch("qbmeas")}),
     "@main:qbmeas: not allowed here"),
    (lambda: QwModule({"main": _in_a_branch("cond")}),
     "@main:cond: not allowed here"),
    (lambda: QwModule({"f": _two_qubit_params()}, entry="f"),
     "@f: reversible, but does not take and return one qubit value"),
    (lambda: _rev_with_bits(param=True),
     "@f: reversible, but does not take and return one qubit value"),
    (lambda: _rev_with_bits(param=False), "@f:bitpack: not allowed here"),
    (_unwidened_predicated_call, "@main:call: types differ from those of @g"),
    (lambda: _cond_yielding(2), "@main:cond: a branch yields qubit[2]"),
    (_irreversible_adjoint_call,
     "@main:call: adjoint or predicated form of irreversible @g"),
    (_caller_first, "@main:call: @g is not listed before @main"),
    (lambda: QwModule({"f": _self_calling("f")}, entry="f"),
     "@f:call: @f is not listed before @f"),
    (lambda: _embed_of_width(3),
     "@main:embed: operand has type qubit[3], wanted qubit[2]"),
], ids=["measure-in-rev", "measure-in-branch", "cond-in-branch",
        "rev-signature", "rev-bit-param", "bits-in-rev", "call-types",
        "branch-yield", "adjoint-of-irreversible", "caller-before-callee",
        "self-call", "embed-width"])
def test_verify_holds_what_the_passes_assume(module, message):
    verify(_embed_of_width(2))
    verify(_module_with_call())
    verify(_cond_yielding(1))
    with pytest.raises(VerifyError, match=re.escape(message)):
        verify(module())


# -- qubit index analysis and predication --------------------------------------


def test_index_analysis_identity():
    fn, block = make_block([], 3)
    idx = qubit_index_analysis(fn, block)
    term = block.ops[-1]
    out = []
    for v in term.operands:
        out.extend(idx[v])
    assert out == [0, 1, 2]


def test_index_analysis_swap_last_two():
    fn, block = make_block([("perm", [0, 2, 1])], 3)
    idx = qubit_index_analysis(fn, block)
    out = []
    for v in block.ops[-1].operands:
        out.extend(idx[v])
    assert out == [0, 2, 1]


def test_index_analysis_through_pack_unpack():
    b = FnBuilder("f", True)
    arg = b.param(qubit(2))
    parts = b.emit("qbunpack", [arg], [qubit(1), qubit(1)], {"sizes": (1, 1)})
    (packed,) = b.emit("qbpack", parts, [qubit(2)])
    b.emit("ret", [packed])
    fn = b.finish([qubit(2)])
    idx = qubit_index_analysis(fn, fn.block)
    assert idx[packed] == (0, 1)


def pred_expected(pred_basis: Basis, u: np.ndarray) -> np.ndarray:
    p = span_projector(pred_basis)
    n = u.shape[0]
    return np.kron(p, u) + np.kron(np.eye(p.shape[0]) - p, np.eye(n))


@pytest.mark.parametrize("pred", [
    basis(lit("1")),
    basis(lit("11")),
    basis(lit("m")),
    basis(lit("01", "10")),
])
def test_predicate_block_formula(pred):
    fn, block = make_block(
        [([0, 1], basis(lit("00", "01", "10", "11")),
          basis(lit("10", "11", "01", "00")))], 2
    )
    u = block_unitary(fn, block)
    pb = predicate_block(fn, block, pred)
    upb = block_unitary(fn, pb)
    assert np.allclose(upb, pred_expected(pred, u), atol=1e-9)


def test_predicate_block_renaming_swap_unswap():
    # A four-qubit block whose last two qubits swap by renaming, predicated
    # on |111>: the compensation is one plain SWAP and one triply-controlled
    # SWAP.
    fn, block = make_block([("perm", [0, 1, 3, 2])], 4)
    pred = basis(lit("111"))
    pb = predicate_block(fn, block, pred)
    swap_ops = [op for op in pb.ops if op.kind == "qbtrans"]
    dims = sorted(op.attrs["b_in"].dim for op in swap_ops)
    assert dims == [2, 5]  # SWAP and pred+SWAP
    u = block_unitary(fn, block)
    upb = block_unitary(fn, pb)
    assert np.allclose(upb, pred_expected(pred, u), atol=1e-9)


def test_predicate_block_no_renaming_adds_no_swaps():
    fn, block = make_block(
        [([0], basis(lit("0", "1")), basis(lit("1", "0")))], 2
    )
    pb = predicate_block(fn, block, basis(lit("1")))
    # Only the predicated translation itself; no extra 2-qubit swap pairs.
    swaps = [op for op in pb.ops if op.kind == "qbtrans"
             and op.attrs["b_in"].dim == 2
             and op.attrs["b_in"].elements[-1] == lit("01", "10")]
    assert not swaps


def test_predicate_random_blocks():
    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        fn, block = random_reversible_block(rng, n, with_renaming=bool(trial % 2))
        u = block_unitary(fn, block)
        pred_dim = int(rng.integers(1, 3))
        bits = [format(x, f"0{pred_dim}b") for x in range(1 << pred_dim)]
        count = int(rng.integers(1, 1 << pred_dim)) if pred_dim > 1 else 1
        chosen = sorted(rng.choice(bits, size=count, replace=False))
        pred = basis(BasisLiteral(tuple(BasisVector(STD, x) for x in chosen)))
        pb = predicate_block(fn, block, pred)
        upb = block_unitary(fn, pb)
        assert np.allclose(upb, pred_expected(pred, u), atol=1e-9)


# -- canonicalization, inlining ---------------------------------------------------


def _module_with_call() -> QwModule:
    """main calls g, which runs std >> pm."""
    gb = FnBuilder("g", True)
    arg = gb.param(qubit(1))
    gb.emit("ret", [trans_op(gb, arg, basis(BuiltinBasis(STD, 1)),
                             basis(BuiltinBasis(PM, 1)))])
    b = FnBuilder("main", False)
    (q,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    (out,) = b.emit("call", [q], [qubit(1)], {"sym": "g", "adj": False, "pred": None})
    (bits,) = b.emit("qbmeas", [out], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    b.emit("ret", [bits])
    return QwModule({"g": gb.finish([qubit(1)]), "main": b.finish([bit(1)])},
                    entry="main")


def test_inline_leaves_no_calls():
    m = _module_with_call()
    verify(m)
    canonicalize_ir(m)
    assert count_calls(m) == (1,)
    inline(m)
    verify(m)
    assert count_calls(m) == (0,)


ADJOINTED = "qpu g(q: qubit[1]) -> qubit[1] rev {\n    q | (std >> pm)\n}\n"


@pytest.mark.parametrize("stage, adj, pred", [
    ("~~g", False, None),
    ("~({'1'} & ~g)", False, basis(lit("1"))),
    ("({'1'} & ~({'0'} & g))", True, basis(lit("1"), lit("0"))),
], ids=["double-adjoint", "adjoints-around-a-predicate", "outer-predicate-first"])
def test_lowering_folds_adjoints_and_predicates_into_the_call(stage, adj, pred):
    # Lowering carries each ~ and & down to the kernel it wraps: one call
    # whose adj is the parity of the ~s and whose predicate puts the
    # outermost basis leftmost.
    from qbc.lower_ast import lower_to_ir
    from qbc.pipeline import Options, front

    n = 1 + (0 if pred is None else pred.dim)
    src = ADJOINTED + (f"qpu main() -> bit[{n}] {{\n"
                       f"    '{'0' * n}' | {stage} | std[{n}].measure\n}}\n")
    m = lower_to_ir(front(src, "adj.qw", Options()))
    verify(m)
    calls = [op for op in m.entry_fn.block.ops if op.kind == "call"]
    assert [op.attrs for op in calls] == [{"sym": "g", "adj": adj, "pred": pred}]


def test_canonicalize_keeps_defs_that_cond_branches_reach_through_a_fold():
    # The branches use %p; folding %p = qbpack(%a) leaves them reading %a,
    # so the qbunpack that defines %a is live.
    b = FnBuilder("main", False)
    (c,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    (m_bit,) = b.emit("qbmeas", [c], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    (w,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    (a,) = b.emit("qbunpack", [w], [qubit(1)], {"sizes": (1,)})
    (p,) = b.emit("qbpack", [a], [qubit(1)])
    regions = []
    for out in (PM, STD):
        b.push_block()
        b.emit("yield", [trans_op(b, p, basis(BuiltinBasis(STD, 1)),
                                  basis(BuiltinBasis(out, 1)))])
        regions.append(b.pop_block())
    (r,) = b.emit("cond", [m_bit], [qubit(1)], {}, regions)
    (bits,) = b.emit("qbmeas", [r], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    b.emit("ret", [bits])
    m = QwModule({"main": b.finish([bit(1)])}, entry="main")
    verify(m)
    canonicalize_ir(m)
    verify(m)
    assert [op.kind for op in m.entry_fn.block.ops].count("qbpack") == 0
    for region in regions:
        assert region.ops[0].operands == [a]


# -- inlining decorated calls ------------------------------------------------------


# A phase translation, S on one qubit, which is not its own adjoint.
PHASE = (basis(lit("0", "1")), basis(lit("0", ("1", math.pi / 2))))


def _chain_module(pred=None) -> QwModule:
    """main calls f, predicated on ``pred`` if it is given; f calls adj g;
    g calls h, then runs PHASE; h runs std >> pm."""
    h_b = FnBuilder("h", True)
    arg = h_b.param(qubit(1))
    v = trans_op(h_b, arg, basis(BuiltinBasis(STD, 1)), basis(BuiltinBasis(PM, 1)))
    h_b.emit("ret", [v])
    h = h_b.finish([qubit(1)])

    g_b = FnBuilder("g", True)
    arg = g_b.param(qubit(1))
    (v,) = g_b.emit("call", [arg], [qubit(1)], {"sym": "h", "adj": False, "pred": None})
    v = trans_op(g_b, v, *PHASE)
    g_b.emit("ret", [v])
    g = g_b.finish([qubit(1)])

    f_b = FnBuilder("f", True)
    arg = f_b.param(qubit(1))
    (v,) = f_b.emit("call", [arg], [qubit(1)], {"sym": "g", "adj": True, "pred": None})
    f_b.emit("ret", [v])
    f = f_b.finish([qubit(1)])

    n = 1 if pred is None else 1 + pred.dim
    main_b = FnBuilder("main", True)
    arg = main_b.param(qubit(n))
    (out,) = main_b.emit("call", [arg], [qubit(n)], {"sym": "f", "adj": False, "pred": pred})
    main_b.emit("ret", [out])
    main = main_b.finish([qubit(n)])
    return QwModule({"h": h, "g": g, "f": f, "main": main}, entry="main")


@pytest.mark.parametrize("pred", [None, basis(lit("00", "11"))],
                         ids=["adj", "pred-of-adj"])
def test_inline_flattens_decorated_calls_into_their_product(pred):
    m = _chain_module(pred)
    inline(m)
    prune_unreachable(m)
    verify(m)
    assert list(m.functions) == ["main"]
    assert count_calls(m) == (0,)
    # f runs the adjoint of g, which runs h and then PHASE.
    g = translation_unitary(*PHASE) @ translation_unitary(
        basis(BuiltinBasis(STD, 1)), basis(BuiltinBasis(PM, 1)))
    want = g.conj().T if pred is None else pred_expected(pred, g.conj().T)
    fn = m.entry_fn
    assert np.allclose(block_unitary(fn, fn.block), want, atol=1e-9)
    # A module without calls is left as it is: no form is made.
    ops = list(fn.block.ops)
    inline(m)
    assert list(m.functions) == ["main"] and fn.block.ops == ops


NESTED_DECORATED = """
qpu h(q: qubit[1]) -> qubit[1] rev {
    q | ({'0', '1'} >> {'1' @ (pi/4), '0'})
}
qpu g(q: qubit[2]) -> qubit[2] rev {
    q | ({'1'} & h) | ({'1'} & ~h)
}
qpu f(q: qubit[3]) -> qubit[3] rev {
    q | ({'1'} & g) | ({'1'} & ~g)
}
qpu main() -> bit[4] {
    '1111' | ({'1'} & f) | ({'1'} & ~f) | std[4].measure
}
"""


def test_each_call_is_spliced_once(monkeypatch):
    from qbc import qwir_passes
    from qbc.pipeline import Options, front, to_gates, to_qwir
    from qbc.run import distribution

    clones = []
    clone_into = qwir_passes._clone_into

    def counting(fn, src_fn, block):
        clones.append((fn.name, src_fn.name))
        return clone_into(fn, src_fn, block)

    monkeypatch.setattr(qwir_passes, "_clone_into", counting)
    m = to_qwir(front(NESTED_DECORATED, "nested.qw", Options()), Options())
    assert distribution(to_gates(m, Options())) == {"1111": pytest.approx(1.0)}
    # Six call ops (two in each of g, f and main) each spliced once, and six
    # forms (the predicated and the predicated adjoint of h, g and f) each
    # made once from a flat body: no body is cloned twice into one function.
    assert len(clones) == len(set(clones)) == 6 + 6


def test_inline_preserves_distribution():
    from qbc.lower_gates import lower_module
    from qbc.run import distribution

    m1 = _module_with_call()
    canonicalize_ir(m1)
    inline(m1)
    d1 = distribution(lower_module(m1))
    assert abs(sum(d1.values()) - 1.0) < 1e-12
    assert d1 == {"0": pytest.approx(0.5), "1": pytest.approx(0.5)}


# -- inlining compiled programs --------------------------------------------------


NESTED_HELPERS = """
qpu h(q: qubit[1]) -> qubit[1] rev {
    q | ({'0', '1'} >> {'1' @ (pi/4), '0'})
}
qpu g(q: qubit[1]) -> qubit[1] rev {
    q | h | (std >> pm)
}
qpu f(q: qubit[2]) -> qubit[2] rev {
    q | (g + ~g) | ({'01', '10'} >> {'10', '01'})
}
"""


@pytest.mark.parametrize("body, want", [
    ("'01' | f | ~f | std[2].measure", "01"),
    ("'10' | ({'1'} & g) | ({'1'} & ~g) | std[2].measure", "10"),
    ("'101' | ({'1'} & f) | ({'1'} & ~f) | std[3].measure", "101"),
])
def test_inline_nested_helpers_and_their_inverses(body, want):
    from qbc.pipeline import Options, compile_to_circuit
    from qbc.run import distribution

    src = NESTED_HELPERS + f"qpu main() -> bit[{len(want)}] {{\n    {body}\n}}\n"
    qc = compile_to_circuit(src, "nested.qw", Options())
    assert distribution(qc) == {want: pytest.approx(1.0)}


SHADOWED_IDENTITY = """
qpu {name}(q: qubit[1]) -> qubit[1] rev {{
    q
}}
qpu main() -> bit[2] {{
    '00' | ({name} + id[1]) | ({{'1'}} & std.flip) | std[2].measure
}}
"""

SHADOWED_ADJOINT = """
qpu g(q: qubit[1]) -> qubit[1] rev {
    q | ({'0', '1'} >> {'0', '1' @ (pi/2)})
}
qpu g__adj(q: qubit[1]) -> qubit[1] rev {
    q | std.flip
}
qpu main() -> bit[2] {
    ('0' + 'p') | (g__adj + ~g) | (id[1] + g) | (id[1] + (pm >> std))
        | std[2].measure
}
"""


# Generated functions are named with a '.', which no identifier holds: the
# adjoint of g is g.adj, so the user's g__adj keeps its body, as do kernels
# named like the per-stage functions an earlier lowering made.
@pytest.mark.parametrize("src, want", [
    (SHADOWED_IDENTITY.format(name="main__lambda2"), "00"),
    (SHADOWED_IDENTITY.format(name="main__lambda3"), "00"),
    (SHADOWED_ADJOINT, "10"),
], ids=["main__lambda2", "main__lambda3", "g__adj"])
def test_generated_functions_do_not_shadow_user_functions(src, want):
    from qbc.pipeline import Options, compile_to_circuit
    from qbc.run import distribution

    qc = compile_to_circuit(src, "shadow.qw", Options())
    assert distribution(qc) == {want: pytest.approx(1.0)}


def test_each_specialization_is_made_once(monkeypatch):
    from qbc import qwir_passes
    from qbc.pipeline import Options, compile_to_circuit
    from qbc.run import distribution

    made = []

    def counting(fn, block):
        made.append(fn.name)
        return adjoint_block(fn, block)

    monkeypatch.setattr(qwir_passes, "adjoint_block", counting)
    src = NESTED_HELPERS + ("qpu main() -> bit[1] {\n"
                            "    '0' | ~g | ~g | g | g | std.measure\n}\n")
    qc = compile_to_circuit(src, "twice.qw", Options())
    assert distribution(qc) == {"0": pytest.approx(1.0)}
    # Two ~g call sites, one adjoint of g (and one of each function g calls).
    assert made.count("g.adj") == 1
    assert len(made) == len(set(made))


COND_HELPERS = """
qpu g(q: qubit[1]) -> qubit[1] rev {
    q | std.flip
}
qpu h(q: qubit[1]) -> qubit[1] rev {
    q | ({'0', '1'} >> {'0', '1' @ (pi/2)})
}
"""


@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize("m_bit, want", [("1", "11"), ("0", "10")])
def test_predicated_conditional_function_value(m_bit, want, opt_level):
    # A predicate over a conditional: each branch applies it, to a direct
    # call of g or of h's adjoint.
    from qbc.pipeline import Options, compile_to_circuit
    from qbc.run import distribution

    src = COND_HELPERS + (
        "qpu main() -> bit[2] {\n"
        f"    let m = '{m_bit}' | std.measure;\n"
        "    ('1' + '0') | ({'1'} & (g if m else ~h)) | std[2].measure\n}\n")
    qc = compile_to_circuit(src, "cond.qw", Options(opt_level=opt_level))
    assert distribution(qc) == {want: pytest.approx(1.0)}


def test_wrapped_function_values_distribute_through_conds():
    from qbc.pipeline import Options, front, to_qwir
    from qbc.qwir_passes import _iter_ops

    src = COND_HELPERS + (
        "qpu main() -> bit[2] {\n"
        "    let m = '0' | std.measure;\n"
        "    let n = '1' | std.measure;\n"
        "    ('1' + '0') | ~({'1'} & (h if m else g)) | (g + ~h if n else id[2])"
        " | std[2].measure\n}\n")
    m = to_qwir(front(src, "conds.qw", Options()), Options())
    kinds = [op.kind for op in _iter_ops(m.entry_fn.block)]
    assert kinds.count("cond") == 2 and "call" not in kinds


def test_inline_more_call_sites_than_any_round_cap():
    from qbc.pipeline import Options, compile_to_circuit
    from qbc.run import distribution

    # Three helpers pipe 400 flips each and main calls all three: 1203 call
    # sites. The 1200 flips cancel in pairs, so the qubit stays |0>.
    chain = "".join("    | flip0\n" for _ in range(400))
    helpers = "".join(f"qpu {name}(q: qubit[1]) -> qubit[1] rev {{\n    q\n{chain}}}\n"
                      for name in ("a", "b", "c"))
    src = ("qpu flip0(q: qubit[1]) -> qubit[1] rev {\n"
           "    q | ({'0', '1'} >> {'1' @ (pi/4), '0'})\n}\n" + helpers
           + "qpu main() -> bit[1] {\n    '0' | a | b | c | std.measure\n}\n")
    qc = compile_to_circuit(src, "flips.qw", Options())
    assert distribution(qc) == {"0": pytest.approx(1.0)}


def test_inline_resolves_chains_of_pass_through_calls():
    # main calls f, f calls g, g calls h and h returns its argument: the
    # measured value is the prepared one, reached through a chain of
    # substitutions that no canonicalization rewrite shortens.
    def passing(name, callee):
        b = FnBuilder(name, True)
        v = b.param(qubit(1))
        if callee is not None:
            (v,) = b.emit("call", [v], [qubit(1)],
                          {"sym": callee, "adj": False, "pred": None})
        b.emit("ret", [v])
        return b.finish([qubit(1)])

    b = FnBuilder("main", False)
    (q,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "1"})
    (out,) = b.emit("call", [q], [qubit(1)], {"sym": "f", "adj": False, "pred": None})
    (bits,) = b.emit("qbmeas", [out], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    b.emit("ret", [bits])
    m = QwModule({"h": passing("h", None), "g": passing("g", "h"),
                  "f": passing("f", "g"), "main": b.finish([bit(1)])},
                 entry="main")
    inline(m)
    prune_unreachable(m)
    verify(m)
    assert list(m.functions) == ["main"]
    assert [op.kind for op in m.entry_fn.block.ops] == ["qbprep", "qbmeas", "ret"]
    assert m.entry_fn.block.ops[1].operands == [q]


def test_inline_leaves_a_self_call_for_verify():
    # Expansion reports a recursive kernel at its call, so a cycle here is a
    # compiler bug. Inlining splices each function's calls once, so it
    # returns rather than splicing forever, and verify rejects the call left.
    m = _chain_module()
    m.functions["f"] = _self_calling("f")
    inline(m)
    assert "call" in [op.kind for op in m.functions["f"].block.ops]
    with pytest.raises(VerifyError, match=re.escape(
            "@f:call: @f is not listed before @f")):
        verify(m)


# -- one canonicalization per function -------------------------------------------


ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "benchmarks").glob("*.qw")) + sorted(
    (ROOT / "tests" / "goldens").glob("*.qw"))


def _canonicalized_before_inlining(tp) -> QwModule:
    """The basis IR as the pipeline built it when every function was
    canonicalized and verified before ``inline`` canonicalized each caller
    again."""
    m = lower_to_ir(tp)
    verify(m)
    canonicalize_ir(m)
    verify(m)
    inline(m)
    prune_unreachable(m)
    verify(m)
    return m


def _both_orders(source: str, opts: Options) -> list[tuple[str, str, str]]:
    """(basis IR, gate-level IR, QASM) from the old order, then the
    pipeline."""
    out = []
    for build in (_canonicalized_before_inlining,
                  lambda tp: to_qwir(tp, opts)):
        m = build(front(source, "order.qw", opts))
        qwir = print_module(m)
        qc = to_gates(m, opts)
        out.append((qwir, print_qcirc(qc),
                    emit_qasm3(qc, reuse_qubits=_reuse(opts))))
    return out


@pytest.mark.parametrize("opt_level", [0, 1])
@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_one_canonicalization_gives_the_corpus_its_output(path, opt_level):
    old, new = _both_orders(path.read_text(), Options(opt_level=opt_level))
    assert new == old


@settings(FUZZ, max_examples=100)
@given(programs(), st.sampled_from([0, 1]))
def test_one_canonicalization_gives_generated_programs_their_circuits(
        source, opt_level):
    # Which basis-IR value survives a fusion may differ; the gates may not.
    old, new = _both_orders(source, Options(opt_level=opt_level))
    assert new[1:] == old[1:], source


# -- fusing chained translations ------------------------------------------------


def _chain(*pairs, n):
    """A function over one qubit[n] that runs each (b_in, b_out) in turn."""
    b = simple_fn(n=n)
    v = b.fn.params[0]
    for b_in, b_out in pairs:
        v = trans_op(b, v, b_in, b_out)
    b.emit("ret", [v])
    return b.finish([qubit(n)])


def _canonicalized(fn):
    want = block_unitary(fn, fn.block)
    m = QwModule({"f": fn}, entry="f")
    canonicalize_ir(m)
    verify(m)
    assert np.allclose(block_unitary(fn, fn.block), want, atol=1e-9)
    return [op for op in fn.block.ops if op.kind == "qbtrans"]


def test_fusion_composes_literals_by_eigenbits_and_phases():
    # {'0','1'} >> {'1'@a,'0'} then {'1'@c,'0'} >> {'0'@d,'1'}: vector 0 of
    # the first output is '1'@a, which the second input holds at 0, so it
    # goes to '0' with phase a - c + d.
    a, c, d = 0.5, 0.25, 2.0
    fn = _chain((basis(lit("0", "1")), basis(lit(("1", a), "0"))),
                (basis(lit(("1", c), "0")), basis(lit(("0", d), "1"))), n=1)
    (op,) = _canonicalized(fn)
    assert op.attrs["b_in"] == basis(lit("0", "1"))
    assert op.attrs["b_out"] == basis(lit(("0", a - c + d), "1"))


def test_fusion_of_a_translation_and_its_inverse_leaves_nothing():
    std2, fourier2 = basis(BuiltinBasis(STD, 2)), basis(BuiltinBasis(Prim.FOURIER, 2))
    assert _canonicalized(_chain((std2, fourier2), (fourier2, std2), n=2)) == []
    swap_in, swap_out = basis(lit("01", "10")), basis(lit("10", "01"))
    assert _canonicalized(_chain((swap_in, swap_out), (swap_in, swap_out),
                                 n=2)) == []


def test_fusion_counts_a_builtin_as_its_full_literal():
    fn = _chain((basis(BuiltinBasis(PM, 1)), basis(lit("m", "p"))),
                (basis(lit("m", ("p", 1.0))), basis(BuiltinBasis(PM, 1))), n=1)
    (op,) = _canonicalized(fn)
    assert op.attrs["b_out"] == basis(lit("p", ("m", -1.0)))


@pytest.mark.parametrize("first, second", [
    # mismatched prims
    ((basis(lit("0", "1")), basis(lit("1", "0"))),
     (basis(lit("p", "m")), basis(lit("m", "p")))),
    # fourier against a literal, and a literal into fourier
    ((basis(BuiltinBasis(STD, 1)), basis(BuiltinBasis(Prim.FOURIER, 1))),
     (basis(lit("0", "1")), basis(lit("1", "0")))),
    ((basis(lit("0", "1")), basis(lit("1", "0"))),
     (basis(lit("0", "1")), basis(BuiltinBasis(Prim.FOURIER, 1)))),
    # different eigenbits, and a partial literal against a full one
    ((basis(lit("00", "11")), basis(lit("11", "00"))),
     (basis(lit("01", "10")), basis(lit("10", "01")))),
    ((basis(lit("0")), basis(lit(("0", 1.0)))),
     (basis(lit("0", "1")), basis(lit("1", "0")))),
], ids=["prims", "fourier-literal", "literal-fourier", "eigenbits",
        "partial"])
def test_fusion_leaves_unfusable_pairs(first, second):
    n = first[0].dim
    assert len(_canonicalized(_chain(first, second, n=n))) == 2


def test_fusion_needs_elements_of_equal_dims():
    one, two = BuiltinBasis(STD, 1), BuiltinBasis(STD, 2)
    flip = lit("1", "0")
    fn = _chain((basis(one, two), basis(flip, two)),
                (basis(two, one), basis(two, flip)), n=3)
    assert len(_canonicalized(fn)) == 2
    fn = _chain((basis(one, one), basis(flip, one)),
                (basis(two), basis(lit("11", "10", "01", "00"))), n=2)
    assert len(_canonicalized(fn)) == 2


def test_qft_round_trip_leaves_no_translation_in_the_basis_ir():
    from qbc.pipeline import Options, compile_source

    src = ("qpu main[N]() -> bit[N] {\n    'p'[N] | (std[N] >> fourier[N])"
           " | (fourier[N] >> std[N]) | pm[N].measure\n}\n")
    ir = compile_source(src, "qft.qw", Options(dims={"N": 4}), "qwerty-ir")
    assert "qbtrans" not in ir


# Random runs of stages for the whole pipeline: each stage is a pair of
# bases with its source text.

_PRIMS = (STD, PM, IJ)
# The lexer reads no exponent, so a phase is a multiple of 1/1000 or of pi/4.
_PHASES = st.one_of(st.none(), st.integers(-3141, 3141).map(lambda k: k / 1000),
                    st.integers(-3, 4).map(lambda k: k * math.pi / 4))


def _elem_src(e) -> str:
    if isinstance(e, BuiltinBasis):
        return str(e)
    return "{" + ", ".join(
        f"'{v.chars()}'" + ("" if v.phase is None else f" @ ({v.phase!r})")
        for v in e.vectors) + "}"


def _basis_src(b: Basis) -> str:
    return " + ".join(_elem_src(e) for e in b.elements)


@st.composite
def _element_pair(draw, dim):
    """An (input, output) pair of elements of one span: a std/pm/ij builtin
    or a literal with its vectors in any order and any phases."""
    bits = [format(k, f"0{dim}b") for k in range(1 << dim)]
    full = draw(st.booleans()) or draw(st.booleans())
    if not full:
        bits = draw(st.lists(st.sampled_from(bits), min_size=1,
                             max_size=len(bits) - 1, unique=True))
    prim_in = draw(st.sampled_from(_PRIMS))
    prim_out = draw(st.sampled_from(_PRIMS)) if full else prim_in

    def element(prim):
        if full and draw(st.booleans()):
            return BuiltinBasis(prim, dim)
        order = draw(st.permutations(bits))
        return BasisLiteral(tuple(BasisVector(prim, b, draw(_PHASES))
                                  for b in order))

    return element(prim_in), element(prim_out)


@st.composite
def _stage(draw, n):
    """(b_in, b_out, source) of one stage on n qubits."""
    shapes = ["whole"] + (["tensor", "pred", "qft", "iqft"] if n == 2 else [])
    shape = draw(st.sampled_from(shapes))
    if shape in ("qft", "iqft"):
        pair = [basis(BuiltinBasis(STD, 2)), basis(BuiltinBasis(Prim.FOURIER, 2))]
        b_in, b_out = pair if shape == "qft" else pair[::-1]
        return b_in, b_out, f"({b_in} >> {b_out})"
    if shape == "tensor":
        (i0, o0), (i1, o1) = draw(_element_pair(1)), draw(_element_pair(1))
        b_in, b_out = basis(i0, i1), basis(o0, o1)
    else:
        e_in, e_out = draw(_element_pair(n if shape == "whole" else 1))
        b_in, b_out = basis(e_in), basis(e_out)
    text = f"({_basis_src(b_in)} >> {_basis_src(b_out)})"
    if shape == "pred":
        one = lit("1")
        return (basis(one, *b_in.elements), basis(one, *b_out.elements),
                f"({{'1'}} & {text})")
    return b_in, b_out, text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fused_runs_keep_the_product_of_their_stages(data):
    from unittest import mock

    from qbc import pipeline
    from oracles import equal_up_to_global_phase, module_unitary

    n = data.draw(st.integers(1, 2), label="n")
    stages = data.draw(st.lists(_stage(n), min_size=2, max_size=6),
                       label="stages")
    want = np.eye(1 << n)
    for b_in, b_out, _ in stages:
        want = translation_unitary(b_in, b_out) @ want
    src = (f"qpu main() -> bit[{n}] {{\n    '{'0' * n}'\n"
           + "".join(f"    | {text}\n" for _, _, text in stages)
           + f"    | std[{n}].measure\n}}\n")
    tp = pipeline.front(src, "stages.qw", pipeline.Options())
    with mock.patch.object(pipeline, "lower_module", lower_with_params):
        for opt_level, decompose in itertools.product((0, 1), (False, True)):
            opts = pipeline.Options(opt_level=opt_level, decompose=decompose)
            qc = pipeline.to_gates(pipeline.to_qwir(tp, opts), opts)
            got = module_unitary(qc.entry_fn)
            if opt_level == 0:
                assert np.allclose(got, want, atol=1e-9), src
            else:
                assert equal_up_to_global_phase(got, want), src
