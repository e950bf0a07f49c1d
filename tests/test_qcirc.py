"""Gate-level IR verifier and wire map, phase folding, peephole rules,
multi-control decomposition, and the QASM reader's operand checks."""

import math
import pathlib
import re

import numpy as np
import pytest

from qbc.qcirc import (
    Gate, GateKind, QCircFn, QCircModule, QOp, adjoint_gates, append_gates, g,
    print_qcirc, verify_circuit, wire_starts, CircuitError,
)
from qbc.backends import BackendError
from qbc.peephole import (
    ccx_gates, decompose_multicontrol, fold_phases, peephole, rccx_gates,
)
from qbc.pipeline import Options, compile_source, compile_to_circuit, stats_for
from qasm_reader import read_qasm3
from oracles import (
    equal_up_to_global_phase, gates_to_fn, module_unitary, pipe_chain_source,
    unitary_of,
)

H, X, Y, Z, S, SDG, T, TDG, P, SWAP = (
    GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.SDG,
    GateKind.T, GateKind.TDG, GateKind.P, GateKind.SWAP,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def fn_module(gates, n) -> QCircModule:
    fn = gates_to_fn("main", n, gates)
    return QCircModule({"main": fn}, "main")


def gate_count(m) -> int:
    return m.entry_fn.count_gates()


def unitary_of_module(m, n):
    return module_unitary(m.entry_fn)


def test_verify_rejects_double_use():
    fn = QCircFn("f", qubit_params=(0,))
    fn.next_id = 1
    fn.ops = [
        QOp("gate", (0,), (1,), gate=H),
        QOp("gate", (0,), (2,), gate=H),
        QOp("qfree", (1,)), QOp("qfree", (2,)),
    ]
    with pytest.raises(CircuitError):
        verify_circuit(QCircModule({"f": fn}, "f"))


def test_verify_rejects_dangling_qubit():
    fn = QCircFn("f")
    fn.ops = [QOp("qalloc", results=(0,)), QOp("ret", ())]
    fn.next_id = 1
    with pytest.raises(CircuitError):
        verify_circuit(QCircModule({"f": fn}, "f"))


@pytest.mark.parametrize("ops, message", [
    ([QOp("gate", (5,), (6,), gate=H)], "op 0 (gate) uses undefined qubit %5"),
    ([QOp("qfree", (7,))], "op 0 (qfree) uses undefined qubit %7"),
    ([QOp("gate", (0,), (1,), gate=H), QOp("measure", (0,), (2,))],
     "qubit %0 used twice (op 1 (measure))"),
    ([QOp("gate", (0, 0), (1, 2), gate=X, num_controls=1)],
     "op 0 (gate) repeats qubit %0 in one gate"),
    ([QOp("gate", (0,), (1, 2), gate=H)], "op 0 (gate) operand/result mismatch"),
    ([QOp("gate", (0,), (1,), gate=SWAP)], "op 0 (gate) wrong target count"),
    ([QOp("gate", (0,), (1,), gate=H, condition=(0, True))],
     "op 0 (gate) conditions on non-bit"),
    ([QOp("qalloc", results=(0,))], "%0 redefined"),
    ([QOp("gate", (0,), (0,), gate=H)], "%0 redefined"),
    ([QOp("ret", ()), QOp("qfree", (0,))], "ret not last op"),
    ([QOp("ret", (0,))], "ret of non-bit %0"),
    ([QOp("qalloc", results=(1,)), QOp("qalloc", results=(2,)),
      QOp("gate", (2,), (3,), gate=H)],
     "allocated qubits never consumed: %1, %3"),
    ([QOp("bogus")], "unknown op kind bogus"),
], ids=["undefined", "undefined_freed", "used_twice", "repeated_operand",
        "result_count", "target_count", "condition_non_bit", "realloc",
        "gate_redefines", "ret_not_last", "ret_non_bit", "dangling",
        "unknown_kind"])
def test_verify_names_each_violation(ops, message):
    # One parameter qubit %0; each case breaks exactly one invariant.
    fn = QCircFn("f", ops, qubit_params=(0,), next_id=8)
    with pytest.raises(CircuitError) as e:
        verify_circuit(QCircModule({"f": fn}, "f"))
    assert str(e.value) == "f: " + message


def test_wire_starts_maps_each_qubit_value_to_its_wire():
    # Parameters 0 and 1 and the qalloc'd 2 pass through a Toffoli, a swap
    # and an H; 2's wire is freed and qalloc 9 starts a new one. The
    # measured bit 11 is no qubit.
    fn = QCircFn("f", qubit_params=(0, 1), next_id=12)
    fn.ops = [
        QOp("qalloc", results=(2,)),
        QOp("gate", (0, 1, 2), (3, 4, 5), gate=X, num_controls=2),
        QOp("gate", (3, 5), (6, 7), gate=SWAP),
        QOp("gate", (4,), (8,), gate=H),
        QOp("qfree", (7,)),
        QOp("qalloc", results=(9,)),
        QOp("gate", (9,), (10,), gate=H),
        QOp("measure", (10,), (11,)),
        QOp("ret", (11,)),
    ]
    verify_circuit(QCircModule({"f": fn}, "f"))
    assert wire_starts(fn) == {
        0: 0, 3: 0, 6: 0,
        1: 1, 4: 1, 8: 1,
        2: 2, 5: 2, 7: 2,
        9: 9, 10: 9,
    }


def test_verify_rejects_control_equals_target():
    with pytest.raises(AssertionError):
        g(X, 0, controls=(0,))


def test_peephole_hh_cancels():
    m = fn_module([g(H, 0), g(H, 0)], 1)
    peephole(m)
    assert gate_count(m) == 0


def test_peephole_hxh_to_z():
    m = fn_module([g(H, 0), g(X, 0), g(H, 0)], 1)
    peephole(m)
    fn = m.entry_fn
    kinds = [op.gate for op in fn.ops if op.kind == "gate"]
    assert kinds == [Z]


def test_peephole_hzh_to_x():
    m = fn_module([g(H, 0), g(Z, 0), g(H, 0)], 1)
    peephole(m)
    kinds = [op.gate for op in m.entry_fn.ops if op.kind == "gate"]
    assert kinds == [X]


def test_peephole_h_cx_h_to_cz():
    m = fn_module([g(H, 1), g(X, 1, controls=(0,)), g(H, 1)], 2)
    before = unitary_of_module(m, 2)
    peephole(m)
    kinds = [(op.gate, op.num_controls) for op in m.entry_fn.ops if op.kind == "gate"]
    assert kinds == [(Z, 1)]
    assert np.allclose(before, unitary_of_module(m, 2), atol=1e-9)


def test_peephole_s_sdg_cancels():
    m = fn_module([g(S, 0), g(SDG, 0)], 1)
    peephole(m)
    assert gate_count(m) == 0


def test_peephole_phase_merge():
    m = fn_module([g(P, 0, param=0.3), g(P, 0, param=0.5)], 1)
    peephole(m)
    ops = [op for op in m.entry_fn.ops if op.kind == "gate"]
    assert len(ops) == 1 and abs(ops[0].param - 0.8) < 1e-12


def test_peephole_phase_cancel():
    m = fn_module([g(P, 0, param=0.4), g(P, 0, param=-0.4)], 1)
    peephole(m)
    assert gate_count(m) == 0


def test_peephole_keeps_distinct_controls():
    m = fn_module([g(X, 1, controls=(0,)), g(X, 1, controls=(2,))], 3)
    peephole(m)
    assert gate_count(m) == 2


def _measured_then(*stmts):
    """q[1] and q[2] measured into c[0] and c[1], then ``stmts`` on q[0]."""
    return read_qasm3("OPENQASM 3.0;\nqubit[3] q;\nbit[2] c;\n"
                      "measure q[1] -> c[0];\nmeasure q[2] -> c[1];\n"
                      + "\n".join(stmts) + "\n")


@pytest.mark.parametrize("first, second, left", [
    ("if (c[0] == 1) { x q[0]; }", "if (c[0] == 1) { x q[0]; }", 0),
    ("if (c[0] == 0) { s q[0]; }", "if (c[0] == 0) { sdg q[0]; }", 0),
    ("if (c[1] == 1) { p(0.25) q[0]; }", "if (c[1] == 1) { p(0.5) q[0]; }", 1),
    ("if (c[0] == 1) { x q[0]; }", "if (c[1] == 1) { x q[0]; }", 2),
    ("if (c[0] == 1) { x q[0]; }", "if (c[0] == 0) { x q[0]; }", 2),
    ("if (c[0] == 1) { x q[0]; }", "x q[0];", 2),
    ("x q[0];", "if (c[0] == 1) { x q[0]; }", 2),
], ids=["same", "same-polarity-0", "phase-merge", "other-bit",
        "other-polarity", "then-unconditioned", "after-unconditioned"])
def test_peephole_pair_rule_under_one_condition(first, second, left):
    m = _measured_then(first, second)
    peephole(m)
    verify_circuit(m)
    assert gate_count(m) == left


def test_peephole_hxh_under_one_condition():
    cond = "if (c[0] == 1) {{ {} q[0]; }}"
    m = _measured_then(cond.format("h"), cond.format("x"), cond.format("h"))
    peephole(m)
    (op,) = [op for op in m.entry_fn.ops if op.kind == "gate"]
    assert op.gate is Z and op.condition is not None and op.condition[1]
    # An unconditioned H, or one under the other bit, is left as it is.
    for first in ("h q[0];", "if (c[1] == 1) { h q[0]; }"):
        m = _measured_then(first, cond.format("x"), cond.format("h"))
        peephole(m)
        assert gate_count(m) == 3


def _append_minus_chain(fn, wires, anc_gates, controls_list):
    """qalloc, ``anc_gates`` on the ancilla, one MCX onto it per control
    tuple, H, X, qfreez."""
    a = fn.new_id()
    fn.ops.append(QOp("qalloc", results=(a,)))
    wires.append(a)
    anc = len(wires) - 1
    append_gates(fn, wires, [g(k, anc) for k in anc_gates]
                 + [g(X, anc, controls=c) for c in controls_list]
                 + [g(H, anc), g(X, anc)])
    fn.ops.append(QOp("qfreez", (wires[anc],)))


def test_peephole_qft_round_trip_cancels_to_nothing():
    # A scaling case: 672 gates reach the peephole, which cancels them all;
    # a pass that rescans the function after each rewrite takes seconds here.
    src = ("qpu main[N]() -> bit[N] {\n    'p'[N] | (std[N] >> fourier[N])"
           " | (fourier[N] >> std[N]) | pm[N].measure\n}\n")
    m = compile_to_circuit(src, "qft.qw", Options(dims={"N": 24}))
    assert gate_count(m) == 0


def test_ccx_gates_match_toffoli():
    u = unitary_of(ccx_gates(0, 1, 2), 3)
    want = np.eye(8)
    want[[6, 7]] = want[[7, 6]]
    assert np.allclose(u, want, atol=1e-9)


def test_rccx_gates_are_toffoli_times_a_control_phase():
    toffoli = unitary_of([g(X, 2, controls=(0, 1))], 3)
    lone = unitary_of(rccx_gates(0, 1, 2), 3)
    # -i on controls 11, whatever the target: a diagonal on the controls only.
    assert np.allclose(toffoli.conj().T @ lone,
                       np.diag(np.repeat([1, 1, 1, -1j], 2)), atol=1e-9)
    # Mirrored around a middle that keeps both controls' values (diagonals
    # on them, the target as a control), the phases cancel exactly.
    middle = [g(S, 0), g(T, 1), g(Z, 1, controls=(0,)),
              g(X, 3, controls=(2,)), g(H, 3, controls=(2,)), g(P, 0, param=0.3)]
    core = rccx_gates(0, 1, 2)
    exact = [g(X, 2, controls=(0, 1))]
    assert np.allclose(unitary_of(core + middle + adjoint_gates(core), 4),
                       unitary_of(exact + middle + exact, 4), atol=1e-9)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_decompose_mcx(k):
    m = fn_module([Gate(X, (k,), tuple(range(k)))], k + 1)
    want = unitary_of_module(m, k + 1)
    decompose_multicontrol(m)
    verify_circuit(m)
    assert all(op.num_controls <= 1 for op in m.entry_fn.ops if op.kind == "gate")
    assert np.allclose(module_unitary(m.entry_fn), want, atol=1e-9)


def test_decompose_mcz_and_mcp():
    for kind, param in [(Z, 0.0), (P, 0.7), (H, 0.0), (S, 0.0)]:
        m = fn_module([Gate(kind, (2,), (0, 1), param)], 3)
        want = unitary_of_module(m, 3)
        decompose_multicontrol(m)
        verify_circuit(m)
        assert all(op.num_controls <= 1 for op in m.entry_fn.ops if op.kind == "gate")
        assert np.allclose(module_unitary(m.entry_fn), want, atol=1e-9), kind


def test_decompose_leaves_single_controls():
    m = fn_module([g(X, 1, controls=(0,))], 2)
    decompose_multicontrol(m)
    assert gate_count(m) == 1


def _toffoli(pair):
    return Gate(X, (2,), (0, 1), pair=pair)


@pytest.mark.parametrize("first, second, cancels", [
    (1, -1, True), (-1, 1, True), (0, 0, True),
    (1, 0, False), (0, -1, False), (1, 1, False), (-1, -1, False),
])
def test_peephole_cancels_flagged_toffolis_only_as_a_pair(first, second, cancels):
    m = fn_module([_toffoli(first), _toffoli(second)], 3)
    peephole(m)
    assert gate_count(m) == (0 if cancels else 2)


def _t_count(m) -> int:
    return sum(op.gate in (T, TDG) for op in m.entry_fn.ops if op.kind == "gate")


def test_decompose_flagged_pair_is_exact_with_half_the_t():
    # compute, something diagonal on the controls and the target's value,
    # uncompute: 8 T instead of 14, and exactly the unflagged unitary.
    middle = [g(Z, 3, controls=(2,)), g(S, 0)]
    flagged = fn_module([_toffoli(1)] + middle + [_toffoli(-1)], 4)
    exact = fn_module([_toffoli(0)] + middle + [_toffoli(0)], 4)
    want = unitary_of_module(exact, 4)
    decompose_multicontrol(flagged)
    decompose_multicontrol(exact)
    assert (_t_count(flagged), _t_count(exact)) == (8, 14)
    assert np.allclose(module_unitary(flagged.entry_fn), want, atol=1e-9)
    # Either half alone leaves a relative phase.
    lone = fn_module([_toffoli(1)], 3)
    decompose_multicontrol(lone)
    assert not np.allclose(module_unitary(lone.entry_fn), unitary_of([_toffoli(0)], 3))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("kind, param", [
    (X, 0.0), (Z, 0.0), (GateKind.Y, 0.0), (P, math.pi), (P, 0.7), (H, 0.0),
], ids=["x", "z", "y", "p_pi", "p_0.7", "h"])
def test_decompose_ladder_is_exact(k, kind, param):
    m = fn_module([Gate(kind, (k,), tuple(range(k)), param)], k + 1)
    want = unitary_of_module(m, k + 1)
    decompose_multicontrol(m)
    verify_circuit(m)
    assert np.allclose(module_unitary(m.entry_fn), want, atol=1e-9)
    ancillas = sum(op.kind == "qalloc" for op in m.entry_fn.ops)
    if kind in (X, Z, GateKind.Y) or param == math.pi:
        # k - 2 relative-phase ANDs and their mirrors around an exact
        # Toffoli (CCZ for Z and P(pi)).
        assert (_t_count(m), ancillas) == (8 * (k - 2) + 7, k - 2)
    else:
        # k - 1 ANDs and mirrors around one singly controlled U, which
        # stays a single gate with no T of its own.
        assert (_t_count(m), ancillas) == (8 * (k - 1), k - 1)


@pytest.mark.parametrize("param", [math.pi, -math.pi, 3 * math.pi])
def test_decompose_controlled_pi_phase_as_controlled_z(param):
    m = fn_module([Gate(P, (3,), (0, 1, 2), param)], 4)
    want = unitary_of_module(m, 4)
    decompose_multicontrol(m)
    assert _t_count(m) == 15  # rccx, ccz, rccx-dagger
    assert sum(op.kind == "qalloc" for op in m.entry_fn.ops) == 1
    assert np.allclose(module_unitary(m.entry_fn), want, atol=1e-9)


_PROGRAMS = ("bell", "bv", "dj", "grover", "period", "simon", "teleport")


@pytest.mark.parametrize("name, dims", [(name, {}) for name in _PROGRAMS]
                         + [("grover", {"N": 8})],
                         ids=list(_PROGRAMS) + ["grover_N8"])
def test_decomposed_output_leaves_peephole_nothing_to_cancel(name, dims):
    # Decomposition emits no pair a second peephole pass could cancel.
    path = BENCH / f"{name}.qw"
    m = compile_to_circuit(path.read_text(), str(path), Options(dims=dims))
    before = gate_count(m)
    assert gate_count(peephole(m)) == before


def test_no_decompose_output_shows_exact_toffolis():
    path = BENCH / "grover.qw"
    source = path.read_text()
    opts = Options(decompose=False)
    qasm = compile_source(source, str(path), opts, "qasm")
    text = compile_source(source, str(path), opts, "qcircuit-ir")
    assert "ctrl(2) @ x" in qasm
    assert not re.search(r"^\s*(t|tdg) ", qasm, re.M)
    qc = compile_to_circuit(source, str(path), opts)
    assert {op.pair for op in qc.entry_fn.ops} == {-1, 0, 1}
    assert print_qcirc(qc) == text  # the flag is never printed
    for op in qc.entry_fn.ops:
        op.pair = 0
    exact = _t_count(decompose_multicontrol(qc))
    relative = _t_count(compile_to_circuit(source, str(path), Options()))
    assert relative < exact
    # A re-ingested circuit carries no flags: exact Toffolis.
    again = read_qasm3(qasm)
    assert not any(op.pair for op in again.entry_fn.ops)
    assert _t_count(decompose_multicontrol(again)) == exact


def test_peephole_never_increases_gate_count_random():
    rng = np.random.default_rng(5)
    kinds = [X, Z, H, S, SDG, T, TDG, P, SWAP]
    for trial in range(60):
        n = int(rng.integers(2, 7))
        fn = gates_to_fn("main", n, [])
        wires = list(range(n))
        chains = 0
        for _ in range(int(rng.integers(1, 61))):
            if chains < 3 and rng.random() < 0.05:
                # A multi-controlled X onto an ancilla driven as |->, whose
                # lead gates may hold a pair to cancel; no rule rewrites the
                # chain as a whole.
                chains += 1
                controls = [tuple(int(c) for c in rng.choice(
                    n, size=int(rng.integers(1, 3)), replace=False))
                    for _ in range(int(rng.integers(1, 4)))]
                lead = [[X, H], [X, X, X, H], [Z, X, H]][int(rng.integers(0, 3))]
                _append_minus_chain(fn, wires, lead, controls)
                continue
            kind = kinds[int(rng.integers(0, len(kinds)))]
            qs = list(rng.choice(n, size=2 if kind is SWAP else 1, replace=False))
            free = [q for q in range(n) if q not in qs]
            nc = int(rng.integers(0, min(2, len(free)) + 1))
            ctrl = tuple(free[:nc])
            param = float(rng.uniform(-math.pi, math.pi)) if kind is P else 0.0
            append_gates(fn, wires, [Gate(kind, tuple(qs), ctrl, param)])
        m = QCircModule({"main": fn}, "main")
        before_u = unitary_of_module(m, n)
        before_count = gate_count(m)
        peephole(m)
        verify_circuit(m)
        assert gate_count(m) <= before_count
        after_u = unitary_of_module(m, n)
        assert np.allclose(before_u, after_u, atol=1e-9)
        text = print_qcirc(m)
        peephole(m)
        assert print_qcirc(m) == text  # the first pass reached a fixpoint


def test_decompose_preserves_unitary_random():
    rng = np.random.default_rng(6)
    kinds = [X, Z, H, P]
    for trial in range(30):
        n = int(rng.integers(3, 6))
        gates = []
        for _ in range(int(rng.integers(1, 12))):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            qs = [int(rng.integers(0, n))]
            free = [q for q in range(n) if q not in qs]
            nc = int(rng.integers(0, min(3, len(free)) + 1))
            ctrl = tuple(free[:nc])
            param = float(rng.uniform(-math.pi, math.pi)) if kind is P else 0.0
            gates.append(Gate(kind, tuple(qs), ctrl, param))
        m = fn_module(gates, n)
        want = unitary_of_module(m, n)
        decompose_multicontrol(m)
        verify_circuit(m)
        assert np.allclose(module_unitary(m.entry_fn), want, atol=1e-9)


# (kind, controls) of the gates the phase-folding tests draw from.
_CLASSICAL = [(X, 0), (X, 1), (SWAP, 0), (X, 2), (SWAP, 1)]
_DIAGONAL = [(Z, 0), (S, 0), (SDG, 0), (T, 0), (TDG, 0), (P, 0), (Z, 1),
             (P, 1)]
_ANY = _CLASSICAL + _DIAGONAL + [(H, 0), (Y, 0)]


def _random_gates(rng, wires, kinds, count):
    gates = []
    for _ in range(count):
        kind, nc = kinds[int(rng.integers(0, len(kinds)))]
        size = nc + (2 if kind is SWAP else 1)
        if size > len(wires):
            continue
        qs = [int(q) for q in rng.choice(wires, size=size, replace=False)]
        param = 0.0
        if kind is P:  # half the angles are multiples of pi/4
            param = float(rng.uniform(-math.pi, math.pi)) if rng.random() < 0.5 \
                else int(rng.integers(-8, 9)) * math.pi / 4
        gates.append(Gate(kind, tuple(qs[nc:]), tuple(qs[:nc]), param))
    return gates


def test_fold_phases_is_exact_up_to_global_phase_random():
    # Rounds of any gates on the parameters, then a diagonal middle on all
    # wires between a classical computation and its mirror, so the qalloc'd
    # ancillas end in |0>.
    rng = np.random.default_rng(11)
    removed = 0
    for trial in range(80):
        n, anc = int(rng.integers(1, 5)), int(rng.integers(0, 3))
        gates = []
        for _ in range(int(rng.integers(1, 4))):
            gates += _random_gates(rng, range(n), _ANY, int(rng.integers(0, 12)))
            compute = _random_gates(rng, range(n + anc), _CLASSICAL,
                                    int(rng.integers(0, 8)))
            gates += compute + _random_gates(
                rng, range(n + anc), _DIAGONAL, int(rng.integers(0, 12)))
            gates += adjoint_gates(compute)
        m = QCircModule({"main": gates_to_fn("main", n, gates, anc)}, "main")
        want, before = module_unitary(m.entry_fn), gate_count(m)
        fold_phases(m)
        verify_circuit(m)
        assert gate_count(m) <= before
        assert equal_up_to_global_phase(module_unitary(m.entry_fn), want)
        removed += before - gate_count(m)
        text = print_qcirc(m)
        fold_phases(m)
        assert print_qcirc(m) == text  # one pass reaches a fixpoint
    assert removed > 0


def test_fold_phases_emits_each_term_once_as_clifford_t():
    # T on a parameter and P(pi/2) on its copy in an ancilla make 3pi/4 on
    # one parity, emitted as s then t at the T; the phases on the other
    # ancilla's constant parity are global and go.
    gates = [g(T, 0), g(X, 1, controls=(0,)), g(P, 1, param=math.pi / 2),
             g(X, 1, controls=(0,)), g(X, 2), g(T, 2), g(S, 2), g(X, 2)]
    m = QCircModule({"main": gates_to_fn("main", 1, gates, 2)}, "main")
    fold_phases(m)
    ops = [op for op in m.entry_fn.ops if op.kind == "gate"]
    assert [(op.gate, op.num_controls) for op in ops] == [
        (S, 0), (T, 0), (X, 1), (X, 1), (X, 0), (X, 0)]
    assert ops[0].operands == (0,) and ops[1].operands == ops[0].results
    assert peephole(m).entry_fn.count_gates() == 2


@pytest.mark.parametrize("flips", [20, 21])
def test_pipe_chain_folds_to_its_flip_parity(flips):
    rng = np.random.default_rng(flips)
    stages = [f"{kind}{int(rng.integers(0, 4))}"
              for kind in ["flip"] * flips + ["keep"] * (40 - flips)]
    rng.shuffle(stages)
    # The basis IR fuses the 40 stages into one translation, and -O1 folds
    # that to the parity of the flips.
    src = pipe_chain_source(stages)
    assert compile_source(src, "pipe.qw", Options(), "qwerty-ir") \
        .count("qbtrans") == 1
    m = compile_to_circuit(src, "pipe.qw", Options())
    assert [(op.gate, op.num_controls) for op in m.entry_fn.ops
            if op.kind == "gate"] == [(X, 0)] * (flips % 2)
    # With every other stage written in the pm basis nothing fuses, and -O0
    # folds nothing: each flip is x; p and each keep x; p; x; p, inside an
    # h pair in the pm basis.
    mixed = [("pm_" if i % 2 else "") + s for i, s in enumerate(stages)]
    src = pipe_chain_source(mixed)
    assert compile_source(src, "pipe.qw", Options(), "qwerty-ir") \
        .count("qbtrans") == 40
    m = compile_to_circuit(src, "pipe.qw", Options(opt_level=0))
    assert gate_count(m) == sum((2 if "flip" in s else 4)
                                + (2 if s.startswith("pm_") else 0)
                                for s in mixed)
    assert gate_count(compile_to_circuit(src, "pipe.qw", Options())) \
        < gate_count(m)


def test_grover_n8_counts_are_unchanged_by_folding():
    path = BENCH / "grover.qw"
    stats = stats_for(path.read_text(), str(path), Options(dims={"N": 8}))
    assert (stats.gates, stats.t_count, stats.cx_count) == (760, 285, 285)


@pytest.mark.parametrize("stmt", [
    "ctrl(1) @ x q[0];", "cx q[0], q[0];", "x q[0], q[1];", "swap q[0];",
    "ccx q[0], q[1];", "if (c[0] == 1) { x q[0]; }", "p(pi/2) q[0];",
    "x(0.3) q[0];", "h(1.0) q[0];", "p q[0];", "cp q[0], q[1];",
])
def test_read_qasm3_rejects_bad_qubit_operands(stmt):
    text = f"OPENQASM 3.0;\nqubit[3] q;\nbit[1] c;\n{stmt}\n"
    with pytest.raises(BackendError, match=re.escape(stmt)):
        read_qasm3(text)
