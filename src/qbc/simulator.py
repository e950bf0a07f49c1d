"""
Dense statevector simulation: the in-place gate kernel and ``StateVector``,
the register of live qubits that the executor in ``qbc.run`` drives.

Conventions: qubit 0 is the leftmost qubit of a register and the most
significant bit of a basis-state index. All state vectors are complex128 and
renormalized checks use absolute tolerances around 1e-9.

qbc's only numpy users are this module and ``qbc.run``; compiling imports
neither.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

NORM_TOL = 1e-9
FREEZ_TOL = 1e-9

_SQ2 = 1.0 / math.sqrt(2.0)

# One-qubit gate matrices; gates act on register positions (0 = MSB).
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
