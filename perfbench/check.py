"""Output checks against the references, and circuit counts read from QASM."""

from __future__ import annotations

import math
import re

EXACT_TOL = 1e-9
# A sampled count may stray this many standard deviations (plus one count)
# from shots * p. At 5 sigma a correct histogram fails about once in 10^6
# outcomes, so the bound holds across seeds.
SIGMA_BOUND = 5.0


def exact_mismatch(dist: dict[str, float], ref: dict[str, float]) -> str | None:
    """Why an exact distribution differs from `ref`, or None if it matches."""
    for key in sorted(set(dist) | set(ref)):
        got, want = dist.get(key, 0.0), ref.get(key, 0.0)
        if abs(got - want) > EXACT_TOL:
            return f"P({key!r}) = {got!r}, reference {want!r}"
    return None


def sampled_mismatch(hist: dict[str, int], ref: dict[str, float],
                     shots: int) -> str | None:
    """Why a shot histogram is implausible under `ref`, or None."""
    total = sum(hist.values())
    if total != shots:
        return f"{total} shots counted, {shots} requested"
    for key in sorted(set(hist) | set(ref)):
        got, p = hist.get(key, 0), ref.get(key, 0.0)
        if p == 0.0:
            if got:
                return f"{key!r} seen {got} times, reference probability 0"
            continue
        sigma = math.sqrt(shots * p * (1.0 - p))
        if abs(got - shots * p) > SIGMA_BOUND * sigma + 1.0:
            return f"{key!r} seen {got} times, expected {shots * p:.1f}"
    return None


_GATE = re.compile(r"^(?:if \(c\[\d+\] == \d\) \{ )?"
                   r"(?:ctrl\((\d+)\) @ )?(\w+)(?:\([^)]*\))? (.*);")
_QUBIT = re.compile(r"q\[(\d+)\]")
_NOT_GATES = ("OPENQASM", "include", "qubit[", "bit[", "measure ")


def qasm_counts(text: str) -> dict[str, int]:
    """Gate, T, CX counts, depth and register width of emitted OpenQASM 3.

    Depth is the longest chain of gates along any qubit wire; measurements
    and classical conditions do not add to it.
    """
    width = gates = t = cx = 0
    level: dict[int, int] = {}
    for line in text.splitlines():
        line = line.strip()
        m = re.match(r"qubit\[(\d+)\] q;", line)
        if m:
            width = int(m.group(1))
            continue
        if not line or line.startswith(_NOT_GATES):
            continue
        m = _GATE.match(line)
        if not m:
            raise ValueError(f"unrecognised QASM statement: {line}")
        ctrl, name, args = m.groups()
        gates += 1
        t += name in ("t", "tdg")
        cx += name == "cx" or (name == "x" and ctrl == "1")
        wires = [int(q) for q in _QUBIT.findall(args)]
        d = 1 + max(level.get(w, 0) for w in wires)
        for w in wires:
            level[w] = d
    return {"gates": gates, "t_count": t, "cx_count": cx,
            "depth": max(level.values(), default=0), "qubits": width}
