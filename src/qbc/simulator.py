"""
Dense statevector simulation and the numeric oracles used throughout the
test suite: span projectors, translation unitaries, and gate-list unitaries.

Conventions: qubit 0 is the leftmost qubit of a register and the most
significant bit of a basis-state index. All state vectors are complex128 and
renormalized checks use absolute tolerances around 1e-9.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .bases import (
    Basis,
    BasisElement,
    BasisLiteral,
    BasisVector,
    BuiltinBasis,
    Prim,
    builtin_vectors,
)

NORM_TOL = 1e-9
FREEZ_TOL = 1e-9

_SQ2 = 1.0 / math.sqrt(2.0)

_SINGLE_STATES = {
    (Prim.STD, "0"): np.array([1, 0], dtype=complex),
    (Prim.STD, "1"): np.array([0, 1], dtype=complex),
    (Prim.PM, "0"): np.array([_SQ2, _SQ2], dtype=complex),
    (Prim.PM, "1"): np.array([_SQ2, -_SQ2], dtype=complex),
    (Prim.IJ, "0"): np.array([_SQ2, _SQ2 * 1j], dtype=complex),
    (Prim.IJ, "1"): np.array([_SQ2, -_SQ2 * 1j], dtype=complex),
}


def vector_state(v: BasisVector) -> np.ndarray:
    """Materialize a basis vector as a 2^dim statevector (with phase)."""
    out = np.array([1.0 + 0j])
    for bit in v.eigenbits:
        out = np.kron(out, _SINGLE_STATES[(v.prim, bit)])
    if v.phase is not None:
        if not isinstance(v.phase, float):
            raise ValueError("symbolic phase cannot be materialized")
        out = out * np.exp(1j * v.phase)
    return out


def fourier_column(dim: int, k: int) -> np.ndarray:
    n = 1 << dim
    j = np.arange(n)
    return np.exp(2j * np.pi * j * k / n) / math.sqrt(n)


def element_states(e: BasisElement) -> list[np.ndarray]:
    """All vectors of an element as statevectors, in enumeration order."""
    if isinstance(e, BuiltinBasis):
        if e.prim is Prim.FOURIER:
            return [fourier_column(e.dim, k) for k in range(1 << e.dim)]
        return [vector_state(v) for v in builtin_vectors(e)]
    assert isinstance(e, BasisLiteral)
    return [vector_state(v) for v in e.vectors]


def basis_states(b: Basis) -> list[np.ndarray]:
    """Row-major products of element vectors: the basis's full vector list."""
    states = [np.array([1.0 + 0j])]
    for e in b.elements:
        states = [np.kron(s, es) for s in states for es in element_states(e)]
    return states


def span_oracle(b: Basis) -> np.ndarray:
    """Matrix whose orthonormal columns span span(b). Brute force; dim <= 10."""
    if b.dim > 10:
        raise ValueError(f"span oracle limited to 10 qubits, got {b.dim}")
    return np.column_stack(basis_states(b))


def span_projector(b: Basis) -> np.ndarray:
    m = span_oracle(b)
    return m @ m.conj().T


def spans_equal(b1: Basis, b2: Basis, tol: float = 1e-9) -> bool:
    if b1.dim != b2.dim:
        return False
    return bool(np.allclose(span_projector(b1), span_projector(b2), atol=tol))


def translation_unitary(b_in: Basis, b_out: Basis) -> np.ndarray:
    """The unitary sum_i |out_i><in_i| + (I - P_span) of a translation."""
    if b_in.dim > 10:
        raise ValueError("translation unitary limited to 10 qubits")
    ins = basis_states(b_in)
    outs = basis_states(b_out)
    assert len(ins) == len(outs)
    n = 1 << b_in.dim
    u = np.zeros((n, n), dtype=complex)
    p = np.zeros((n, n), dtype=complex)
    for vi, vo in zip(ins, outs):
        u += np.outer(vo, vi.conj())
        p += np.outer(vi, vi.conj())
    u += np.eye(n) - p
    assert np.allclose(u @ u.conj().T, np.eye(n), atol=1e-12), "not unitary"
    return u


# ---------------------------------------------------------------------------
# Gate application over register positions (position 0 = MSB).

_GATE_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
}


def _bit(n: int, pos: int) -> int:
    return 1 << (n - 1 - pos)


def apply_gate(
    state: np.ndarray,
    n: int,
    kind: str,
    targets: Sequence[int],
    controls: Sequence[int] = (),
    param: float = 0.0,
) -> None:
    """Apply one gate in place to ``state`` (shape (2^n,) or (2^n, cols)).

    The gate acts on a view with one axis per qubit and a last axis for the
    columns (of length 1 for a vector): controls fix their axis to 1 and
    each target axis is split into its 0 and 1 halves.
    """
    assert state.flags.c_contiguous, "gates apply to a contiguous state"
    view = state.reshape((2,) * n + (-1,))
    idx: list = [slice(None)] * n
    for c in controls:
        idx[c] = 1

    def at(*bits: int) -> tuple:
        sub = list(idx)
        for t, b in zip(targets, bits):
            sub[t] = b
        return tuple(sub)

    if kind == "P":
        view[at(1)] *= np.exp(1j * param)
        return
    if kind in ("SWAP", "X"):
        lo, hi = (at(1, 0), at(0, 1)) if kind == "SWAP" else (at(0), at(1))
        tmp = view[lo].copy()
        view[lo] = view[hi]
        view[hi] = tmp
        return
    m = _GATE_1Q[kind]
    s0, s1 = at(0), at(1)
    if m[0, 1] == 0 and m[1, 0] == 0:
        if m[0, 0] != 1:
            view[s0] *= m[0, 0]
        view[s1] *= m[1, 1]
        return
    a0 = view[s0].copy()
    a1 = view[s1]
    view[s0] = m[0, 0] * a0 + m[0, 1] * a1
    view[s1] = m[1, 0] * a0 + m[1, 1] * a1


def apply_unitary_at(state: np.ndarray, mat: np.ndarray,
                     positions: Sequence[int], n: int) -> np.ndarray:
    """Apply a k-qubit unitary at the given (ordered) positions of n qubits.

    ``state`` may be a vector (2^n,) or a matrix (2^n, cols) applied columnwise.
    """
    k = len(positions)
    assert mat.shape == (1 << k, 1 << k)
    bits = [_bit(n, p) for p in positions]
    idx = np.arange(1 << n)
    rest_mask = (1 << n) - 1
    for b in bits:
        rest_mask ^= b
    base = idx[(idx & ~rest_mask) == 0]
    out = state.copy()

    def sub(a: int) -> np.ndarray:
        add = 0
        for i, b in enumerate(bits):
            if (a >> (k - 1 - i)) & 1:
                add |= b
        return base | add

    rows = [sub(a) for a in range(1 << k)]
    for a in range(1 << k):
        acc = mat[a, 0] * state[rows[0]]
        for b in range(1, 1 << k):
            acc = acc + mat[a, b] * state[rows[b]]
        out[rows[a]] = acc
    return out


def unitary_of(gates: Iterable, n: int) -> np.ndarray:
    """Exact 2^n x 2^n unitary of a gate list, by columnwise application."""
    if n > 10:
        raise ValueError("unitary oracle limited to 10 qubits")
    u = np.eye(1 << n, dtype=complex)
    for g in gates:
        apply_gate(u, n, g.kind.name, g.targets, g.controls, g.param)
    return u


class StateVector:
    """A dense register of live qubits with allocation and removal.

    Qubits are tracked by caller-chosen keys; allocation appends a |0> qubit
    at the least significant position and removal contracts it back out.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.state = np.array([1.0 + 0j])
        self.order: list[object] = []
        self.rng = rng or np.random.default_rng(0)

    @property
    def n(self) -> int:
        return len(self.order)

    def alloc(self, key: object) -> None:
        assert key not in self.order
        if self.n >= 20:
            raise ValueError("simulator limited to 20 live qubits")
        self.state = np.kron(self.state, np.array([1.0 + 0j, 0.0]))
        self.order.append(key)

    def pos(self, key: object) -> int:
        return self.order.index(key)

    def gate(self, kind, targets, controls=(), param: float = 0.0) -> None:
        apply_gate(
            self.state,
            self.n,
            kind,
            [self.pos(k) for k in targets],
            [self.pos(k) for k in controls],
            param,
        )
        norm = math.sqrt(np.vdot(self.state, self.state).real)
        assert abs(norm - 1.0) <= NORM_TOL, f"norm drifted to {norm}"

    def _prob_one(self, key: object) -> float:
        shaped = self.state.reshape(1 << self.pos(key), 2, -1)
        return float(np.sum(np.abs(shaped[:, 1, :]) ** 2))

    def _project_out(self, key: object, outcome: int, prob: float) -> None:
        pos = self.pos(key)
        shaped = self.state.reshape(1 << pos, 2, -1)
        self.state = (shaped[:, outcome, :] / math.sqrt(prob)).reshape(-1)
        self.order.pop(pos)

    def measure(self, key: object) -> int:
        p1 = self._prob_one(key)
        outcome = 1 if self.rng.random() < p1 else 0
        self._project_out(key, outcome, p1 if outcome else 1.0 - p1)
        return outcome

    def freez(self, key: object) -> None:
        p1 = self._prob_one(key)
        if p1 > FREEZ_TOL:
            raise AncillaNotClean(
                f"qfreez on qubit with |1> probability {p1:.3e}"
            )
        self._project_out(key, 0, 1.0 - p1)

    def branch(self, key: object) -> list[tuple[int, float, "StateVector"]]:
        """Each measurement outcome of nonzero probability, with that
        probability and the projected state; ``self`` is left unchanged."""
        p1 = self._prob_one(key)
        out = []
        for outcome, prob in ((0, 1.0 - p1), (1, p1)):
            if prob <= 1e-15:
                continue
            sv = StateVector(self.rng)
            sv.state = self.state  # _project_out rebinds, never writes
            sv.order = list(self.order)
            sv._project_out(key, outcome, prob)
            out.append((outcome, prob, sv))
        return out


class AncillaNotClean(Exception):
    """Raised when qfreez sees a qubit with non-negligible |1> amplitude."""
