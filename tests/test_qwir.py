"""Basis-level IR: verifier, adjoint/predication rewrites,
canonicalization (fusing chained translations included), and inlining with
the adjoint/predicated forms it makes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbc.bases import (
    Basis, BasisLiteral, BasisVector, BuiltinBasis, Prim, basis,
)
from oracles import lit
from qbc.diagnostics import CompileError
from qbc.qwir import (
    FnBuilder, QwBlock, QwFunc, QwModule, QwOp, QwTy, VerifyError, bit,
    func, print_module, qubit, verify,
)
from qbc.qwir_passes import (
    adjoint_block, canonicalize_ir, count_calls, inline, predicate_block, prune_unreachable, qubit_index_analysis,
)

from oracles import apply_unitary_at, span_projector, translation_unitary

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


def test_adjoint_copies_stationary_ops_ahead_of_the_reversed_ones():
    # A function value is stationary: the adjoint copies its func_const
    # first, then adjoints the indirect call through it.
    b = FnBuilder("f", True)
    arg = b.param(qubit(1))
    (fv,) = b.emit("func_const", [], [func(1, "qubit", 1, True)], {"sym": "g"})
    (r,) = b.emit("call_indirect", [fv, arg], [qubit(1)])
    b.emit("ret", [r])
    fn = b.finish([qubit(1)])
    adj = adjoint_block(fn, fn.block)
    assert [op.kind for op in adj.ops] == [
        "func_const", "func_adj", "call_indirect", "ret"]
    const, fadj, call, ret = adj.ops
    assert const.attrs == {"sym": "g"} and const.results != [fv]
    assert fadj.operands == const.results
    assert call.operands == fadj.results + adj.args
    assert ret.operands == call.results


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


def test_adjoint_rejects_measurement():
    b = FnBuilder("f", False)
    arg = b.param(qubit(1))
    (r,) = b.emit("qbmeas", [arg], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    b.emit("ret", [r])
    fn = b.finish([bit(1)])
    with pytest.raises(CompileError):
        adjoint_block(fn, fn.block)


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


def _module_with_lambda() -> QwModule:
    """main calls the function value of main.lambda0, std >> pm, as lowering
    builds it: a func_const naming a module function."""
    lb = FnBuilder("main.lambda0", True)
    arg = lb.param(qubit(1))
    lb.emit("ret", [trans_op(lb, arg, basis(BuiltinBasis(STD, 1)),
                             basis(BuiltinBasis(PM, 1)))])
    b = FnBuilder("main", False)
    (q,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    (fv,) = b.emit("func_const", [], [func(1, "qubit", 1, True)],
                   {"sym": "main.lambda0"})
    (out,) = b.emit("call_indirect", [fv, q], [qubit(1)])
    (bits,) = b.emit("qbmeas", [out], [bit(1)], {"basis": basis(BuiltinBasis(STD, 1))})
    b.emit("ret", [bits])
    return QwModule({"main": b.finish([bit(1)]),
                     "main.lambda0": lb.finish([qubit(1)])}, entry="main")


def test_canonicalize_to_direct_call():
    m = _module_with_lambda()
    verify(m)
    canonicalize_ir(m)
    kinds = [op.kind for op in m.functions["main"].block.ops]
    assert "call" in kinds and "call_indirect" not in kinds


def test_inline_leaves_no_calls():
    m = _module_with_lambda()
    canonicalize_ir(m)
    inline(m)
    verify(m)
    assert count_calls(m) == (0, 0)


def test_canonicalize_folds_adj_pred_chain():
    b = FnBuilder("main", False)
    (q,) = b.emit("qbprep", [], [qubit(3)], {"prim": STD, "eigenbits": "000"})
    (fv,) = b.emit("func_const", [], [func(1, "qubit", 1, True)], {"sym": "g"})
    (fadj,) = b.emit("func_adj", [fv], [func(1, "qubit", 1, True)])
    pred = basis(lit("10"))
    (fpred,) = b.emit("func_pred", [fadj], [func(3, "qubit", 3, True)],
                      {"basis": pred})
    (out,) = b.emit("call_indirect", [fpred, q], [qubit(3)])
    b.emit("qbdiscard", [out], [])
    b.emit("ret", [])
    main = b.finish([])

    g_b = FnBuilder("g", True)
    arg = g_b.param(qubit(1))
    v = trans_op(g_b, arg, basis(BuiltinBasis(STD, 1)), basis(BuiltinBasis(PM, 1)))
    g_b.emit("ret", [v])
    m = QwModule({"main": main, "g": g_b.finish([qubit(1)])}, entry="main")
    canonicalize_ir(m)
    calls = [op for op in m.functions["main"].block.ops if op.kind == "call"]
    assert len(calls) == 1
    assert calls[0].attrs["sym"] == "g"
    assert calls[0].attrs["adj"] is True
    assert calls[0].attrs["pred"] == pred


def test_double_adjoint_cancels():
    b = FnBuilder("main", False)
    (q,) = b.emit("qbprep", [], [qubit(1)], {"prim": STD, "eigenbits": "0"})
    (fv,) = b.emit("func_const", [], [func(1, "qubit", 1, True)], {"sym": "g"})
    (f1,) = b.emit("func_adj", [fv], [func(1, "qubit", 1, True)])
    (f2,) = b.emit("func_adj", [f1], [func(1, "qubit", 1, True)])
    (out,) = b.emit("call_indirect", [f2, q], [qubit(1)])
    b.emit("qbdiscard", [out], [])
    b.emit("ret", [])
    g_b = FnBuilder("g", True)
    arg = g_b.param(qubit(1))
    v = trans_op(g_b, arg, basis(BuiltinBasis(STD, 1)), basis(BuiltinBasis(STD, 1)))
    g_b.emit("ret", [v])
    m = QwModule({"main": b.finish([]), "g": g_b.finish([qubit(1)])}, entry="main")
    canonicalize_ir(m)
    calls = [op for op in m.functions["main"].block.ops if op.kind == "call"]
    assert calls and calls[0].attrs["adj"] is False


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
    return QwModule({"main": main, "f": f, "g": g, "h": h}, entry="main")


@pytest.mark.parametrize("pred", [None, basis(lit("00", "11"))],
                         ids=["adj", "pred-of-adj"])
def test_inline_flattens_decorated_calls_into_their_product(pred):
    m = _chain_module(pred)
    inline(m)
    prune_unreachable(m)
    verify(m)
    assert list(m.functions) == ["main"]
    assert count_calls(m) == (0, 0)
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
    # Eight call ops (one in h, two in each of g, f and main, and main's
    # measurement) each spliced once, and six forms (the predicated and the
    # predicated adjoint of h, g and f) each made once from a flat body: no
    # body is cloned twice into one function.
    assert len(clones) == len(set(clones)) == 8 + 6


def test_inline_preserves_distribution():
    from qbc.lower_gates import lower_module
    from qbc.run import distribution

    m1 = _module_with_lambda()
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


# Generated functions are named with a '.', which no identifier holds: main's
# third lambda (std.flip) is main.lambda2 and the adjoint of g is g.adj, so
# the user's functions keep their bodies.
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
    # func_pred of a cond's function value: pushed into both branches,
    # where it resolves to a direct call of g or of h's adjoint.
    from qbc.pipeline import Options, compile_to_circuit
    from qbc.run import distribution

    src = COND_HELPERS + (
        "qpu main() -> bit[2] {\n"
        f"    let m = '{m_bit}' | std.measure;\n"
        "    ('1' + '0') | ({'1'} & (g if m else ~h)) | std[2].measure\n}\n")
    qc = compile_to_circuit(src, "cond.qw", Options(opt_level=opt_level))
    assert distribution(qc) == {want: pytest.approx(1.0)}


def test_wrapped_function_values_distribute_through_nested_conds():
    from qbc.pipeline import Options, front, to_qwir
    from qbc.qwir_passes import _iter_ops

    src = COND_HELPERS + (
        "qpu main() -> bit[2] {\n"
        "    let m = '0' | std.measure;\n"
        "    let n = '1' | std.measure;\n"
        "    ('1' + '0') | ~({'1'} & (h if m else (g if n else ~h)))"
        " | std[2].measure\n}\n")
    m = to_qwir(front(src, "nested.qw", Options()), Options())
    kinds = [op.kind for op in _iter_ops(m.entry_fn.block)]
    assert kinds.count("cond") == 2
    assert not set(kinds) & {"call", "call_indirect", "func_const",
                             "func_adj", "func_pred"}


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
    m = QwModule({"main": b.finish([bit(1)]), "f": passing("f", "g"),
                  "g": passing("g", "h"), "h": passing("h", None)}, entry="main")
    inline(m)
    prune_unreachable(m)
    verify(m)
    assert list(m.functions) == ["main"]
    assert [op.kind for op in m.entry_fn.block.ops] == ["qbprep", "qbmeas", "ret"]
    assert m.entry_fn.block.ops[1].operands == [q]


def test_inline_rejects_recursion():
    b = FnBuilder("f", True)
    arg = b.param(qubit(1))
    (v,) = b.emit("call", [arg], [qubit(1)], {"sym": "f", "adj": False, "pred": None})
    b.emit("ret", [v])
    m = _chain_module()
    m.functions["f"] = b.finish([qubit(1)])
    with pytest.raises(CompileError, match="recursive call cycle @f -> @f"):
        inline(m)


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


def _lower_with_params(m):
    """Gate lowering whose prepped qubits become parameters and whose
    measurements go, so that ``module_unitary`` reads the stages' unitary
    (the program preps std zeros and measures in std: neither emits a
    gate)."""
    from qbc.lower_gates import lower_module
    from qbc.qcirc import QOp

    qc = lower_module(m)
    fn = qc.entry_fn
    fn.qubit_params = tuple(op.results[0] for op in fn.ops
                            if op.kind == "qalloc")
    fn.ops = [op for op in fn.ops
              if op.kind not in ("qalloc", "measure", "ret")] + [QOp("ret")]
    return qc


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
    with mock.patch.object(pipeline, "lower_module", _lower_with_params):
        for opt_level, decompose in itertools.product((0, 1), (False, True)):
            opts = pipeline.Options(opt_level=opt_level, decompose=decompose)
            qc = pipeline.to_gates(pipeline.to_qwir(tp, opts), opts)
            got = module_unitary(qc.entry_fn)
            if opt_level == 0:
                assert np.allclose(got, want, atol=1e-9), src
            else:
                assert equal_up_to_global_phase(got, want), src
