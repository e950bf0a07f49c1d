"""
Sparse statevector simulation: ``StateVector``, the register of live qubits
that the executor in ``qbc.run`` drives.

Representation. A state is two arrays of equal length: ``idx``, the int64
basis index of each stored row, and ``amp``, its complex128 amplitude. Rows
whose amplitude is zero are not stored, so the cost of a gate follows the
number of nonzero amplitudes, not the register width: an oracle's ancillas
hold functions of the data qubits and add no rows.

Bit ownership. Each live qubit's key owns one fixed bit of the index, taken
from the ``bits`` dict (key -> bit number). ``alloc`` gives a new key the
lowest free bit, which is 0 in every row, and moves no data. Projection
(``measure``, ``freez`` and each child of ``branch``) keeps the rows of its
outcome, clears the key's bit in them and frees the bit. Rows are in no
particular order.

Measurement. The executor in ``qbc.run`` reads outcomes two ways, and
neither changes the state. ``branch`` splits it at one key into each
outcome's projected state, for a measurement that later ops follow.
``joint`` reads the joint distribution of several keys off the stored rows
in one pass, for the measurements after the last gate: it packs each
row's bits of those keys into an int64 outcome and sums |amp|^2 per
distinct outcome, so its cost follows the stored rows, not 2^keys. Either
way an outcome of probability at most ``MIN_PROB`` (1e-15) is dropped.
``measure`` samples one outcome and collapses onto it; only the tests and
the benchmark's traced run call it.

Gates. X, CX, CCX and SWAP only XOR indices, and the diagonal gates (Z, S,
SDG, T, TDG, P) only scale the rows whose control and target bits are all
set. Y is a flip plus a phase of i on rows that had the bit clear and -i on
rows that had it set. H is the one gate that mixes rows: it sorts the rows
it acts on, pairs row ``i`` with row ``i ^ t`` by ``searchsorted``, creates
the partners that are missing and drops every row whose new amplitude has
magnitude at most ``ZERO_TOL`` (1e-12). A dropped row carries at most 1e-24
of probability, so even a state at the amplitude limit loses at most about
1e-18 per gate. After every gate the norm is checked against 1 within
``NORM_TOL``, at a cost linear in the stored rows.

Limits. A state stores at most ``MAX_AMPS`` = 2^20 amplitudes (the memory of
a dense 20-qubit state) and holds at most ``MAX_LIVE`` = 62 live qubits (the
bits of a nonnegative int64 index below bit 62). Reaching either raises
``SimulationError``: an H that would grow the state past 2^20 rows, or a
qalloc past 62 live qubits. So does a ``freez`` of a qubit whose |1>
probability passes ``FREEZ_TOL``. ``SimulationError`` is the one error of
running a program; ``qbc.run`` names the op that raised it.

qbc's only numpy users are this module and ``qbc.run``; compiling imports
neither.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

NORM_TOL = 1e-9
FREEZ_TOL = 1e-9
ZERO_TOL = 1e-12
# An outcome of at most this probability is not a child of ``branch`` or an
# outcome of ``joint``.
MIN_PROB = 1e-15
MAX_AMPS = 1 << 20
MAX_LIVE = 62

_SQ2 = 1.0 / math.sqrt(2.0)

# The phase each diagonal kind puts on rows with its bits set; P carries its
# own in ``param``.
_PHASE = {
    "Z": -1.0 + 0j,
    "S": 1j,
    "SDG": -1j,
    "T": complex(_SQ2, _SQ2),
    "TDG": complex(_SQ2, -_SQ2),
}


class SimulationError(Exception):
    """A program the simulator cannot run: a state past ``MAX_AMPS`` rows
    or ``MAX_LIVE`` live qubits, or a qfreez on a qubit that is not |0>."""


class StateVector:
    """A sparse register of live qubits with allocation and removal.

    Qubits are tracked by caller-chosen keys; ``order`` lists the live keys
    in allocation order.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.idx = np.zeros(1, dtype=np.int64)
        self.amp = np.ones(1, dtype=complex)
        self.bits: dict[object, int] = {}
        self.used = 0  # mask of the bits that live keys own
        self.rng = rng or np.random.default_rng(0)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def order(self) -> list:
        return list(self.bits)

    def alloc(self, key: object) -> None:
        assert key not in self.bits
        if len(self.bits) >= MAX_LIVE:
            raise SimulationError(f"simulator limited to {MAX_LIVE} live qubits")
        used = self.used
        free = ~used & (used + 1)
        self.bits[key] = free.bit_length() - 1
        self.used = used | free

    def gate(self, kind, targets, controls=(), param: float = 0.0) -> None:
        bits = self.bits
        cm = 0
        for k in controls:
            cm |= 1 << bits[k]
        t = 1 << bits[targets[0]]
        idx = self.idx
        if kind == "X":
            if cm:
                idx ^= ((idx & cm) == cm) * t
            else:
                idx ^= t
        elif kind == "H":
            self._mix(t, cm)
        elif kind == "SWAP":
            u = 1 << bits[targets[1]]
            differ = ((idx & t) == 0) != ((idx & u) == 0)
            if cm:
                differ &= (idx & cm) == cm
            idx ^= differ * (t | u)
        elif kind == "Y":
            on = (idx & cm) == cm
            flip = on * t
            self.amp *= np.where(on, np.where(idx & t, -1j, 1j), 1)
            idx ^= flip
        else:
            phase = complex(math.cos(param), math.sin(param)) \
                if kind == "P" else _PHASE[kind]
            m = cm | t
            self.amp[(idx & m) == m] *= phase
        amp = self.amp
        norm = math.sqrt(np.vdot(amp, amp).real)
        assert abs(norm - 1.0) <= NORM_TOL, f"norm drifted to {norm}"

    def _mix(self, t: int, cm: int) -> None:
        """H on the qubit of bit mask ``t``, on the rows whose control mask
        ``cm`` bits are all set. A row's partner ``idx ^ t`` has the same
        control bits, so the rows acted on pair up among themselves."""
        idx, amp = self.idx, self.amp
        rest = None
        if cm:
            on = (idx & cm) == cm
            if not on.all():
                off = ~on
                rest = idx[off], amp[off]
                idx, amp = idx[on], amp[on]
        srt = np.argsort(idx)
        idx, amp = idx[srt], amp[srt]
        partner = idx ^ t
        pos = np.searchsorted(idx, partner)
        np.minimum(pos, len(idx) - 1, out=pos)
        paired = idx[pos] == partner
        # |0> -> (|0> + |1>)/sqrt2 and |1> -> (|0> - |1>)/sqrt2.
        new = (np.where(idx & t, -amp, amp) + amp[pos] * paired) * _SQ2
        if not paired.all():
            lone = ~paired
            rows = len(self.idx) + int(np.count_nonzero(lone))
            if rows > MAX_AMPS:
                raise SimulationError(
                    f"simulator limited to {MAX_AMPS} stored amplitudes, "
                    f"this gate needs {rows}")
            # A lone row's missing partner gets amp / sqrt2 either way.
            idx = np.concatenate((idx, partner[lone]))
            new = np.concatenate((new, amp[lone] * _SQ2))
        keep = np.abs(new) > ZERO_TOL
        if not keep.all():
            idx, new = idx[keep], new[keep]
        if rest is not None:
            idx = np.concatenate((rest[0], idx))
            new = np.concatenate((rest[1], new))
        self.idx, self.amp = idx, new

    def _split(self, key: object) -> tuple[int, np.ndarray]:
        """The key's bit mask and which rows have that bit set."""
        m = 1 << self.bits[key]
        return m, (self.idx & m) != 0

    def _prob(self, rows: np.ndarray) -> float:
        """The probability the given rows carry."""
        a = self.amp[rows]
        return float(np.vdot(a, a).real)

    def _projected(self, key: object, m: int, rows: np.ndarray,
                   prob: float) -> "StateVector":
        """A new state of the given rows with the key's bit cleared and
        freed, renormalized by ``prob``; ``self`` is left unchanged."""
        sv = StateVector.__new__(StateVector)
        sv.idx = self.idx[rows] & ~m
        sv.amp = self.amp[rows] / math.sqrt(prob)
        sv.bits = dict(self.bits)
        del sv.bits[key]
        sv.used = self.used & ~m
        sv.rng = self.rng
        return sv

    def _become(self, other: "StateVector") -> None:
        self.idx, self.amp = other.idx, other.amp
        self.bits, self.used = other.bits, other.used

    def measure(self, key: object) -> int:
        """Sample the key's outcome from ``rng`` and collapse onto it.

        ``qbc.run`` branches or reads ``joint`` instead; this stays bound
        for the tests and for ``perfbench/spans.py``, which wraps it."""
        m, hit = self._split(key)
        outcome = 1 if self.rng.random() < self._prob(hit) else 0
        rows = hit if outcome else ~hit
        self._become(self._projected(key, m, rows, self._prob(rows)))
        return outcome

    def freez(self, key: object) -> None:
        m, hit = self._split(key)
        p1 = self._prob(hit)
        if p1 > FREEZ_TOL:
            raise SimulationError(
                f"qfreez on qubit with |1> probability {p1:.3e}"
            )
        self._become(self._projected(key, m, ~hit, self._prob(~hit)))

    def branch(self, key: object) -> list[tuple[int, float, "StateVector"]]:
        """Each measurement outcome of nonzero probability, with that
        probability and the projected state; ``self`` is left unchanged.
        Each outcome's probability is read from its own rows, so an
        outcome with no rows is never a child: ``1 - p1`` would leave it
        the rounding error of the other outcome's probability."""
        m, hit = self._split(key)
        out = []
        for outcome, rows in ((0, ~hit), (1, hit)):
            prob = self._prob(rows)
            if prob > MIN_PROB:
                out.append((outcome, prob,
                            self._projected(key, m, rows, prob)))
        return out

    def joint(self, keys: list) -> tuple[np.ndarray, np.ndarray]:
        """The joint distribution of measuring ``keys``, read off the
        stored rows in one pass; ``self`` is left unchanged.

        Returns each outcome of probability above ``MIN_PROB`` as an int64
        whose bit ``len(keys) - 1 - j`` is the outcome of ``keys[j]``, in
        ascending order, and the probability each outcome's rows carry.
        Only outcomes that have rows are listed, so the arrays never grow
        past the stored rows, whatever the number of keys."""
        idx, bits = self.idx, self.bits
        code = np.zeros(len(idx), dtype=np.int64)
        for key in keys:
            code <<= 1
            code |= (idx >> bits[key]) & 1
        outcomes, rows = np.unique(code, return_inverse=True)
        amp = self.amp
        probs = np.bincount(rows, weights=amp.real ** 2 + amp.imag ** 2)
        keep = probs > MIN_PROB
        return outcomes[keep], probs[keep]
