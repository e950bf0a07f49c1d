"""The sparse statevector kernel against the dense reference kernel, the
executor, and the translation and module-unitary oracles."""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbc.bases import Basis, BuiltinBasis, Prim, basis
from qbc.qcirc import H, P, SWAP, T, X, Gate, g
from qbc.pipeline import Options, compile_to_circuit
from qbc.run import SimulationError, distribution, simulate
from qbc.qcirc import QCircFn, QCircModule, QOp
from qbc.simulator import ZERO_TOL, StateVector

from oracles import (
    apply_gate, checked_distribution, dense_state, fourier_column, lit,
    module_unitary, translation_unitary, unitary_of,
)


def test_unitary_of_empty_is_identity():
    assert np.allclose(unitary_of([], 2), np.eye(4))


def test_unitary_of_x():
    u = unitary_of([g(X, 0)], 1)
    assert np.allclose(u, [[0, 1], [1, 0]])


def test_unitary_of_hh_is_identity():
    u = unitary_of([g(H, 0), g(H, 0)], 1)
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of two flips the high bit: |00> -> |10>.
    u = unitary_of([g(X, 0)], 2)
    v = u @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(v, [0, 0, 1, 0])


def test_controlled_gate():
    u = unitary_of([g(X, 1, controls=(0,))], 2)
    cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.allclose(u, cx)


def test_swap_gate():
    u = unitary_of([g(SWAP, 0, 1)], 2)
    want = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(u, want)


def test_phase_gate():
    u = unitary_of([g(P, 0, param=math.pi / 2)], 1)
    assert np.allclose(u, [[1, 0], [0, 1j]])


def test_translation_unitary_swap():
    u = translation_unitary(basis(lit("01", "10")), basis(lit("10", "01")))
    want = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(u, want)


def test_translation_unitary_identity():
    for b in [basis(lit("0")), basis(BuiltinBasis(Prim.PM, 2)), basis(lit("ij"))]:
        u = translation_unitary(b, b)
        assert np.allclose(u, np.eye(u.shape[0]), atol=1e-12)


def test_translation_unitary_phase():
    u = translation_unitary(basis(lit(("1", math.pi))), basis(lit("1")))
    assert np.allclose(u, np.diag([1, -1]))


def test_translation_unitary_adjoint_symmetry():
    b1 = basis(lit("0", "1"), BuiltinBasis(Prim.PM, 1))
    b2 = basis(BuiltinBasis(Prim.IJ, 1), lit("1", "0"))
    u12 = translation_unitary(b1, b2)
    u21 = translation_unitary(b2, b1)
    assert np.allclose(u12, u21.conj().T, atol=1e-12)


def test_fourier_column_is_dft():
    n = 3
    f = np.column_stack([fourier_column(n, k) for k in range(8)])
    w = np.exp(2j * np.pi / 8)
    want = np.array([[w ** (j * k) for k in range(8)] for j in range(8)]) / math.sqrt(8)
    assert np.allclose(f, want)


def _bell_module():
    fn = QCircFn("main")
    a, b = 0, 1
    fn.next_id = 2
    fn.ops = [
        QOp("qalloc", results=(a,)),
        QOp("qalloc", results=(b,)),
        QOp("gate", (a,), (2,), gate=H),
        QOp("gate", (2, b), (3, 4), gate=X, num_controls=1),
        QOp("measure", (3,), (5,)),
        QOp("measure", (4,), (6,)),
        QOp("ret", (5, 6)),
    ]
    fn.next_id = 7
    return QCircModule({"main": fn}, "main")


def test_bell_pair_histogram():
    hist = simulate(_bell_module(), shots=1000, seed=7)
    assert set(hist) <= {"00", "11"}
    assert sum(hist.values()) == 1000
    assert hist["00"] > 300 and hist["11"] > 300


def test_simulate_deterministic_given_seed():
    h1 = simulate(_bell_module(), shots=200, seed=42)
    h2 = simulate(_bell_module(), shots=200, seed=42)
    assert h1 == h2


def test_distribution_bell():
    dist = distribution(_bell_module())
    assert set(dist) == {"00", "11"}
    assert dist["00"] == pytest.approx(0.5, abs=1e-12)


def test_qfreez_on_one_raises():
    fn = QCircFn("main")
    fn.ops = [
        QOp("qalloc", results=(0,)),
        QOp("gate", (0,), (1,), gate=X),
        QOp("qfreez", (1,)),
        QOp("ret", ()),
    ]
    fn.next_id = 2
    m = QCircModule({"main": fn}, "main")
    with pytest.raises(SimulationError,
                       match=r"^qfreez %1: qfreez on qubit with \|1> prob"):
        simulate(m, shots=1, seed=0)


def test_module_unitary_with_clean_ancilla():
    # CX into an ancilla and back: identity on the data qubits.
    fn = QCircFn("f", qubit_params=(0, 1))
    fn.next_id = 2
    fn.ops = [
        QOp("qalloc", results=(2,)),
        QOp("gate", (0, 2), (3, 4), gate=X, num_controls=1),
        QOp("gate", (3, 4), (5, 6), gate=X, num_controls=1),
        QOp("qfreez", (6,)),
    ]
    fn.next_id = 7
    u = module_unitary(fn)
    assert np.allclose(u, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("kind", ["measure", "qfree"])
def test_module_unitary_rejects_measure_and_qfree(kind):
    fn = QCircFn("f", qubit_params=(0,))
    fn.ops = [
        QOp("qalloc", results=(1,)),
        QOp(kind, (1,), (2,) if kind == "measure" else ()),
    ]
    fn.next_id = 3
    with pytest.raises(SimulationError, match=kind):
        module_unitary(fn)


def test_module_unitary_rejects_dirty_ancilla():
    # CX copies the parameter into the ancilla and leaves it there.
    fn = QCircFn("f", qubit_params=(0,))
    fn.ops = [
        QOp("qalloc", results=(1,)),
        QOp("gate", (0, 1), (2, 3), gate=X, num_controls=1),
        QOp("qfreez", (3,)),
    ]
    fn.next_id = 4
    with pytest.raises(SimulationError, match="qfreez"):
        module_unitary(fn)


@pytest.mark.parametrize("n_params,n_ancillas", [(10, 1), (11, 0)])
def test_module_unitary_live_qubit_limit(n_params, n_ancillas):
    # Each parameter holds a reference qubit too: 2 * 10 + 1 > 20.
    fn = QCircFn("f", qubit_params=tuple(range(n_params)))
    fn.ops = [QOp("qalloc", results=(n_params + i,)) for i in range(n_ancillas)]
    fn.ops += [QOp("qfreez", (n_params + i,)) for i in range(n_ancillas)]
    fn.next_id = n_params + n_ancillas
    with pytest.raises(SimulationError, match="20 live qubits"):
        module_unitary(fn)


def test_norm_preserved_random_circuit():
    rng = np.random.default_rng(3)
    sv = StateVector(rng)
    for k in range(4):
        sv.alloc(k)
    for _ in range(50):
        kind = rng.choice(["H", "X", "T", "S"])
        q = int(rng.integers(0, 4))
        sv.gate(kind, [q])
    assert abs(np.linalg.norm(sv.amp) - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_gate_unitarity(a, b):
    gates = [g(H, a), g(T, b), g(X, (a + 1) % 4, controls=(a,))]
    u = unitary_of(gates, 4)
    assert np.allclose(u @ u.conj().T, np.eye(16), atol=1e-9)


# ---------------------------------------------------------------------------
# The gate kernel against dense matrices built here from the gate's action
# on each basis state.

_DENSE_1Q = {
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "S": [[1, 0], [0, 1j]],
    "SDG": [[1, 0], [0, -1j]],
    "T": [[1, 0], [0, np.exp(1j * math.pi / 4)]],
    "TDG": [[1, 0], [0, np.exp(-1j * math.pi / 4)]],
}


def _dense(n, kind, targets, controls, param):
    if kind == "P":
        core = np.diag([1, np.exp(1j * param)])
    elif kind == "SWAP":
        core = np.eye(4)[[0, 2, 1, 3]]
    else:
        core = np.array(_DENSE_1Q[kind], dtype=complex)
    u = np.zeros((1 << n, 1 << n), dtype=complex)
    for col in range(1 << n):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        if not all(bits[c] for c in controls):
            u[col, col] = 1
            continue
        sub = int("".join(str(bits[t]) for t in targets), 2)
        for a in range(len(core)):
            out = list(bits)
            for i, t in enumerate(targets):
                out[t] = (a >> (len(targets) - 1 - i)) & 1
            u[int("".join(map(str, out)), 2), col] += core[a, sub]
    return u


@pytest.mark.parametrize("kind,targets,controls", [
    ("P", [1], [3]),
    ("SWAP", [0, 3], [2]),
    ("X", [2], [0, 3]),
    ("H", [1], [3, 0]),
])
def test_apply_gate_controlled_non_adjacent(kind, targets, controls):
    u = np.eye(16, dtype=complex)
    apply_gate(u, 4, kind, targets, controls, 0.7)
    assert np.allclose(u, _dense(4, kind, targets, controls, 0.7))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_gate_matches_dense_matrix(data):
    kind = data.draw(st.sampled_from(["P", "SWAP", *_DENSE_1Q]), label="kind")
    k = 2 if kind == "SWAP" else 1
    n = data.draw(st.integers(k, 5), label="n")
    order = data.draw(st.permutations(range(n)), label="order")
    nctl = data.draw(st.integers(0, n - k), label="controls")
    targets, controls = order[:k], order[k:k + nctl]
    param = data.draw(st.floats(-math.pi, math.pi), label="param")
    cols = data.draw(st.sampled_from([None, 3]), label="cols")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (1 << n,) if cols is None else (1 << n, cols)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = _dense(n, kind, targets, controls, param) @ state
    apply_gate(state, n, kind, targets, controls, param)
    assert np.allclose(state, want, atol=1e-12)


# ---------------------------------------------------------------------------
# StateVector sampling and branching.


def _bell_state(rng=None):
    sv = StateVector(rng)
    sv.alloc("a")
    sv.alloc("b")
    sv.gate("H", ["a"])
    sv.gate("X", ["b"], ["a"])
    return sv


def test_measure_samples_and_collapses():
    ones = 0
    for seed in range(200):
        sv = _bell_state(np.random.default_rng(seed))
        a = sv.measure("a")
        assert sv.order == ["b"]
        assert sv.measure("b") == a
        ones += a
    assert 60 < ones < 140


def test_branch_leaves_state_unchanged():
    sv = _bell_state()
    before = dense_state(sv)
    children = sv.branch("a")
    assert [(o, round(p, 12)) for o, p, _ in children] == [(0, 0.5), (1, 0.5)]
    assert np.array_equal(dense_state(sv), before)
    assert sv.order == ["a", "b"]
    for outcome, _, sub in children:
        assert sub.order == ["b"]
        assert np.allclose(dense_state(sub), np.eye(2)[outcome])


def test_branch_drops_impossible_outcome():
    sv = StateVector()
    sv.alloc("a")
    assert [o for o, _, _ in sv.branch("a")] == [0]


def test_branch_has_no_child_without_rows():
    # Every row has a's bit set, and 40 gates of rounding leave the norm
    # just under 1: 1 - p1 is about 3e-15, but no row reads 0.
    rng = np.random.default_rng(0)
    sv = StateVector()
    for k in "abcd":
        sv.alloc(k)
    sv.gate("X", ["a"])
    for _ in range(40):
        sv.gate(str(rng.choice(["H", "T", "S"])), [str(rng.choice(list("bcd")))])
    children = sv.branch("a")
    assert [o for o, _, _ in children] == [1]
    assert all(len(sub.idx) for _, _, sub in children)


# ---------------------------------------------------------------------------
# The sparse kernel against the dense reference, step by step.


class _DenseRegister:
    """The dense reference: a vector with one bit per key of ``order``, the
    first key most significant; gates go through ``oracles.apply_gate``."""

    def __init__(self):
        self.vec = np.array([1.0 + 0j])
        self.order = []

    def alloc(self, key):
        self.vec = np.kron(self.vec, [1.0 + 0j, 0.0])
        self.order.append(key)

    def gate(self, kind, targets, controls, param):
        pos = self.order.index
        apply_gate(self.vec, len(self.order), kind, [pos(k) for k in targets],
                   [pos(k) for k in controls], param)

    def prob_one(self, key):
        halves = self.vec.reshape(1 << self.order.index(key), 2, -1)
        return float(np.sum(np.abs(halves[:, 1, :]) ** 2))

    def project(self, key, outcome):
        halves = self.vec.reshape(1 << self.order.index(key), 2, -1)
        kept = halves[:, outcome, :].reshape(-1)
        self.vec = kept / np.linalg.norm(kept)
        self.order.remove(key)


_KINDS = ["X", "Y", "Z", "H", "S", "SDG", "T", "TDG", "P", "SWAP"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_kernel_matches_dense_reference(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sv, ref = StateVector(rng), _DenseRegister()
    next_key = 0
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        live = list(ref.order)
        step = data.draw(st.sampled_from(
            ["alloc", "gate", "gate", "gate", "measure", "branch", "freez"]))
        if step == "alloc" or not live:
            if len(live) < 6:
                sv.alloc(next_key)
                ref.alloc(next_key)
                next_key += 1
        elif step == "gate":
            kind = data.draw(st.sampled_from(_KINDS))
            k = 2 if kind == "SWAP" else 1
            if len(live) < k:
                continue
            keys = data.draw(st.permutations(live))
            nctl = data.draw(st.integers(0, min(2, len(live) - k)))
            targets, controls = keys[:k], keys[k:k + nctl]
            param = data.draw(st.floats(-math.pi, math.pi))
            sv.gate(kind, targets, controls, param)
            ref.gate(kind, targets, controls, param)
        else:
            key = data.draw(st.sampled_from(live))
            p1 = ref.prob_one(key)
            if step == "measure":
                outcome = sv.measure(key)
                assert (p1 if outcome else 1.0 - p1) > 1e-12
                ref.project(key, outcome)
            elif step == "branch":
                children = sv.branch(key)
                assert [p for _, p, _ in children] == pytest.approx(
                    [p for p in (1.0 - p1, p1) if p > 1e-12], abs=1e-9)
                outcome, _, sv = data.draw(st.sampled_from(children))
                ref.project(key, outcome)
            elif p1 <= 1e-12:
                sv.freez(key)
                ref.project(key, 0)
            elif p1 > 1e-6:
                with pytest.raises(SimulationError, match="qfreez on qubit"):
                    sv.freez(key)
        assert sv.order == ref.order
        assert np.abs(dense_state(sv) - ref.vec).max() <= 1e-9
        assert (np.abs(sv.amp) > ZERO_TOL).all()


def test_h_drops_the_row_it_cancels():
    # H Z H |0> = |1>: the second H cancels the |0> row exactly.
    sv = StateVector()
    sv.alloc("a")
    sv.alloc("b")
    sv.gate("H", ["b"])
    sv.gate("Z", ["b"])
    sv.gate("H", ["b"])
    assert sv.idx.tolist() == [1 << sv.bits["b"]]
    assert np.allclose(sv.amp, [1.0])


def test_alloc_reuses_the_lowest_freed_bit_without_moving_rows():
    sv = StateVector()
    for key in "abc":
        sv.alloc(key)
    sv.gate("X", ["c"])
    sv.freez("a")
    assert sv.idx.tolist() == [1 << sv.bits["c"]]
    sv.alloc("d")
    assert sv.bits == {"b": 1, "c": 2, "d": 0}
    assert sv.idx.tolist() == [4]


# ---------------------------------------------------------------------------
# The shot-branching executor against the exact distribution.

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCHMARKS = ["bell", "bv", "dj", "grover", "simon", "period", "teleport"]


def _compiled(name):
    path = BENCH / f"{name}.qw"
    return compile_to_circuit(path.read_text(), str(path), Options())


@pytest.mark.parametrize("name", BENCHMARKS)
def test_simulate_agrees_with_distribution(name):
    qc = _compiled(name)
    shots = 4096
    hist = simulate(qc, shots=shots, seed=11)
    dist = distribution(qc)
    assert simulate(qc, shots=shots, seed=11) == hist
    assert sum(hist.values()) == shots
    # Plain Python numbers, not numpy scalars.
    assert {type(c) for c in hist.values()} == {int}
    assert {type(p) for p in dist.values()} == {float}
    for key in set(hist) | set(dist):
        p = dist.get(key, 0.0)
        assert p > 0.0, f"{key} sampled but has probability 0"
        sigma = math.sqrt(shots * p * (1.0 - p))
        assert abs(hist.get(key, 0) - shots * p) <= 5 * sigma + 1, key


def test_qfree_branches_without_recording_a_bit():
    # Discarding half of a Bell pair leaves the other half a fair coin.
    fn = QCircFn("main")
    fn.ops = [
        QOp("qalloc", results=(0,)),
        QOp("qalloc", results=(1,)),
        QOp("gate", (0,), (2,), gate=H),
        QOp("gate", (2, 1), (3, 4), gate=X, num_controls=1),
        QOp("qfree", (3,)),
        QOp("measure", (4,), (5,)),
        QOp("ret", (5,)),
    ]
    fn.next_id = 6
    m = QCircModule({"main": fn}, "main")
    assert distribution(m) == pytest.approx({"0": 0.5, "1": 0.5})
    hist = simulate(m, shots=4000, seed=2)
    assert set(hist) == {"0", "1"} and sum(hist.values()) == 4000
    assert abs(hist["0"] - 2000) < 5 * math.sqrt(1000) + 1


@pytest.mark.parametrize("n", [12, 16])
def test_grover_past_twenty_qubits_matches_closed_form(n):
    # At -O1 grover declares 2N - 2 qubits, past a dense 20-qubit state,
    # but holds at most 2^(N+1) nonzero amplitudes.
    path = BENCH / "grover.qw"
    qc = compile_to_circuit(path.read_text(), str(path),
                            Options(dims={"N": n}))
    dist = distribution(qc)
    assert abs(sum(dist.values()) - 1.0) <= 1e-9
    hit = math.sin(7 * math.asin(2.0 ** (-n / 2))) ** 2
    assert abs(dist["1" * n] - hit) <= 1e-9


@pytest.mark.parametrize("name, dims, calls", [
    # Grover's 8 measurements all follow its last gate.
    ("grover", {"N": 8}, 0),
    # Teleport's two mid-circuit measurements make 1 + 2 splits; Bob's
    # trailing measurement makes none.
    ("teleport", {}, 3),
], ids=["grover", "teleport"])
def test_only_mid_circuit_measurements_branch(monkeypatch, name, dims,
                                              calls):
    path = BENCH / f"{name}.qw"
    qc = compile_to_circuit(path.read_text(), str(path), Options(dims=dims))
    made = []
    branch = StateVector.branch

    def counted(sv, key):
        made.append(key)
        return branch(sv, key)

    monkeypatch.setattr(StateVector, "branch", counted)
    distribution(qc)
    assert len(made) == calls


def test_forty_trailing_measurements_read_as_one_outcome():
    # The outcomes are read off the one stored row: nothing of size 2^40.
    qc = compile_to_circuit(
        "qpu main() -> bit[40] { '1'[40] | std[40].measure }\n", "wide.qw",
        Options())
    assert distribution(qc) == {"1" * 40: 1.0}


@pytest.mark.parametrize("source", [
    # The unreturned bit is measured mid-circuit...
    "qpu main() -> bit[1] { let m = 'p' | std.measure; '1' | std.measure }",
    # ...among the trailing measurements...
    "qpu main() -> bit[1] { let (a: qubit[1], b: qubit[1]) = 'p1';"
    " let m = a | std.measure; b | std.measure }",
    # ...and trailing, while the returned bit is measured mid-circuit.
    "qpu main() -> bit[1] { let r = '1' | std.measure;"
    " let m = 'p' | std.measure; r }",
])
def test_unreturned_measurements_are_marginalized(source):
    qc = compile_to_circuit(source, "unreturned.qw", Options())
    assert checked_distribution(qc) == pytest.approx({"1": 1.0}, abs=1e-12)


def test_simulate_million_shots():
    hist = simulate(_compiled("grover"), shots=10**6, seed=5)
    assert sum(hist.values()) == 10**6
    assert max(hist, key=hist.get) == "1111"


def test_simulate_zero_shots_is_empty():
    assert simulate(_bell_module(), shots=0, seed=1) == {}


def test_simulate_negative_shots_raises():
    with pytest.raises(SimulationError, match="shot count"):
        simulate(_bell_module(), shots=-5, seed=1)


def test_simulate_shots_past_int64_raise():
    # 2^63 - 1 is the most shots numpy's multinomial takes.
    hist = simulate(_bell_module(), shots=(1 << 63) - 1, seed=1)
    assert sum(hist.values()) == (1 << 63) - 1
    with pytest.raises(SimulationError, match="shot count"):
        simulate(_bell_module(), shots=1 << 63, seed=1)


def test_live_qubit_limit_raises_simulation_error():
    # Each live qubit owns one bit of an int64 index: 63 > 62.
    fn = QCircFn("main")
    fn.ops = [QOp("qalloc", results=(i,)) for i in range(63)]
    fn.ops.append(QOp("ret", ()))
    fn.next_id = 63
    with pytest.raises(SimulationError, match="qalloc %62: .*62 live qubits"):
        distribution(QCircModule({"main": fn}, "main"))
