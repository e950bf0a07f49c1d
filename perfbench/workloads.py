"""The benchmark's programs and their reference outputs.

Every reference below is derived by hand from the algorithm, never from the
compiler under test; each carries a one-line derivation. A reference is a
dict from returned bitstring (leftmost bit = first returned bit) to exact
probability.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SHOTS = 1024  # `qbc run` default


@dataclass
class Program:
    name: str
    file: str  # the file name diagnostics use
    source: str
    dims: dict[str, int] = field(default_factory=dict)
    ref: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# References


def bell() -> dict[str, float]:
    # (|00> + |11>)/sqrt2 measured in std: both outcomes at 1/2.
    return {"00": 0.5, "11": 0.5}


def bv(secret: str) -> dict[str, float]:
    # The phase oracle (-1)^(s.x) on |+>^N gives the pm-basis state |s>.
    return {secret: 1.0}


def dj_balanced(n: int) -> dict[str, float]:
    # The parity oracle (-1)^(x1^...^xN) turns |+>^N into |->^N: all ones.
    return {"1" * n: 1.0}


def grover(n: int, iterations: int = 3) -> dict[str, float]:
    # Each iteration rotates by 2*theta, theta = asin(2^-N/2), so the marked
    # item has P = sin^2((2k+1) theta); the 2^N - 1 others share the rest
    # equally by symmetry.
    theta = math.asin(2.0 ** (-n / 2))
    hit = math.sin((2 * iterations + 1) * theta) ** 2
    rest = (1.0 - hit) / ((1 << n) - 1)
    out = {format(x, f"0{n}b"): rest for x in range((1 << n) - 1)}
    out["1" * n] = hit
    return out


def simon(secret: str) -> dict[str, float]:
    # f(x) = x ^ (s if x[0]) is two-to-one, so the pm outcome y is uniform
    # over {y : y.s = 0} and, independently, f(x) is uniform over f's range.
    n = len(secret)
    s = int(secret, 2)
    top = 1 << (n - 1)
    image = {x ^ (s if x & top else 0) for x in range(1 << n)}
    ys = [y for y in range(1 << n) if bin(y & s).count("1") % 2 == 0]
    p = 1.0 / (len(ys) * len(image))
    return {format(y, f"0{n}b") + format(c, f"0{n}b"): p
            for y in ys for c in image}


def period(n: int, mask: str) -> dict[str, float]:
    # f(x) = x & m with m the low k bits has period 2^k: the Fourier outcome
    # is uniform over multiples of 2^N/2^k and f(x) uniform over 2^k values.
    k = mask.count("1")
    if int(mask, 2) != (1 << k) - 1:
        raise ValueError("period reference needs a low-bit mask")
    step = 1 << (n - k)
    p = 1.0 / (1 << (2 * k))
    return {format(j * step, f"0{n}b") + format(c, f"0{n}b"): p
            for j in range(1 << k) for c in range(1 << k)}


def teleport() -> dict[str, float]:
    # Bob ends with the teleported |i>, so the ij measurement always reads 0.
    return {"0": 1.0}


def qft_round_trip(n: int) -> dict[str, float]:
    # The QFT and its inverse cancel, so |+>^N measured in pm reads all zeros.
    return {"0" * n: 1.0}


def pipe_chain(flips: int) -> dict[str, float]:
    # Only the flip stages move |0>; the result is the parity of their count.
    return {str(flips % 2): 1.0}


# ---------------------------------------------------------------------------
# Programs


def _bench(root: Path, name: str, ref: dict[str, float],
           dims: dict[str, int] | None = None) -> Program:
    file = f"benchmarks/{name}.qw"
    label = name + "".join(f"_{k}{v}" for k, v in (dims or {}).items())
    return Program(label, file, (root / file).read_text(encoding="utf-8"),
                   dict(dims or {}), ref)


QFT_SOURCE = """\
qpu main[N]() -> bit[N] {
    'p'[N] | (std[N] >> fourier[N]) | (fourier[N] >> std[N]) | pm[N].measure
}
"""

PIPE_STAGES = 400
PIPE_FLIPS = 201
PIPE_VARIANTS = 4


def pipe_source(seed: int) -> str:
    """A chain of PIPE_STAGES single-qubit stage calls in seeded order.

    Flip stages emit `x; p(a)` and keep stages `x; p(a); x; p(b)`. Every
    stage starts with x and ends with p, so no two stages' gates cancel in
    any order: the emitted gate count, and with it the parity of the flip
    stages, is the same for every seed while the order and the phase
    angles change with it.
    """
    rng = random.Random(seed)
    kinds = ["flip"] * PIPE_FLIPS + ["keep"] * (PIPE_STAGES - PIPE_FLIPS)
    rng.shuffle(kinds)
    defs = []
    for v in range(PIPE_VARIANTS):
        a, b = f"pi * {v + 1} / 8", f"pi * {v + 5} / 8"
        defs.append(
            f"qpu flip{v}(q: qubit[1]) -> qubit[1] rev {{\n"
            f"    q | ({{'0', '1'}} >> {{'1' @ ({a}), '0'}})\n}}\n")
        defs.append(
            f"qpu keep{v}(q: qubit[1]) -> qubit[1] rev {{\n"
            f"    q | ({{'0', '1'}} >> {{'0' @ ({a}), '1' @ ({b})}})\n}}\n")
    calls = "".join(f"    | {k}{rng.randrange(PIPE_VARIANTS)}\n" for k in kinds)
    return ("\n".join(defs) + "\nqpu main() -> bit[1] {\n    '0'\n" + calls
            + "    | std.measure\n}\n")


def workload(name: str, root: Path, seed: int) -> list[Program]:
    """The programs of one workload; `seed` only orders the pipe chain."""
    if name == "paper_run":
        return [
            _bench(root, "bell", bell()),
            _bench(root, "bv", bv("1010")),
            _bench(root, "dj", dj_balanced(4)),
            _bench(root, "grover", grover(4)),
            _bench(root, "period", period(4, "0011")),
            _bench(root, "simon", simon("110")),
            _bench(root, "teleport", teleport()),
        ]
    if name == "compile_scale":
        return [
            Program("qft_round_trip_N12", "qft_round_trip.qw", QFT_SOURCE,
                    {"N": 12}, qft_round_trip(12)),
            Program("pipe_chain_400", "pipe_chain.qw", pipe_source(seed), {},
                    pipe_chain(PIPE_FLIPS)),
            _bench(root, "grover", grover(8), {"N": 8}),
        ]
    raise ValueError(f"unknown workload {name!r}")


# How each workload executes its programs: "sample" replays shots the way
# `qbc run` does, "exact" walks every measurement branch.
EXECUTOR = {"paper_run": "sample", "compile_scale": "exact"}
