"""Self-test of the harness; every benchmark run calls `run_all` first.

    python3 perfbench/selftest.py

It checks that the reference checkers accept each reference and reject a
perturbed copy of it, that the QASM counter reads a known circuit right,
and that the metric names the benchmark prints are those of BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(5)

KNOWN_QASM = """\
OPENQASM 3.0;
include "stdgates.inc";
qubit[3] q;
bit[2] c;
h q[0];
cx q[0], q[1];
t q[1];
tdg q[2];
measure q[0] -> c[0];
if (c[0] == 1) { x q[2]; }
"""
KNOWN_COUNTS = {"gates": 5, "t_count": 2, "cx_count": 1, "depth": 3,
                "qubits": 3}


class SelfTestError(AssertionError):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestError(what)


def perturbed(ref: dict[str, float], share: float) -> dict[str, float]:
    """`ref` with `share` of the likeliest outcome's mass moved elsewhere."""
    top = max(ref, key=ref.get)
    other = next((k for k in ref if k != top),
                 ("1" if top[0] == "0" else "0") + top[1:])
    out = dict(ref)
    delta = share * ref[top]
    out[top] -= delta
    out[other] = out.get(other, 0.0) + delta
    return out


def _sample(dist: dict[str, float], shots: int, seed: int) -> dict[str, int]:
    keys = sorted(dist)
    counts = np.random.default_rng(seed).multinomial(
        shots, [dist[k] for k in keys])
    return {k: int(c) for k, c in zip(keys, counts) if c}


def references() -> None:
    refs = [p.ref for w in workloads.EXECUTOR
            for p in workloads.workload(w, ROOT, seed=0)]
    for ref in refs:
        _expect(abs(sum(ref.values()) - 1.0) < 1e-12, "reference sums to 1")
        _expect(check.exact_mismatch(ref, ref) is None, "exact accepts ref")
        _expect(check.exact_mismatch(perturbed(ref, 1e-6), ref) is not None,
                "exact rejects a perturbed distribution")
        shots = workloads.SHOTS
        for seed in SEEDS:
            _expect(check.sampled_mismatch(_sample(ref, shots, seed), ref,
                                           shots) is None,
                    "sampled accepts a histogram drawn from the reference")
            bad = _sample(perturbed(ref, 1.0), shots, seed)
            _expect(check.sampled_mismatch(bad, ref, shots) is not None,
                    "sampled rejects a histogram of a perturbed distribution")


def qasm_counter() -> None:
    _expect(check.qasm_counts(KNOWN_QASM) == KNOWN_COUNTS,
            f"QASM counts {check.qasm_counts(KNOWN_QASM)}")


def metric_names(spec: dict, end_to_end: dict[str, str],
                 per_layer: dict[str, str]) -> None:
    """The metrics the benchmark prints, name to unit, are BENCHMARK.json's."""
    for key, printed in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        _expect(declared == printed, f"{key} metrics differ from "
                f"BENCHMARK.json: {sorted(set(declared.items()) ^ set(printed.items()))}")


def run_all(spec: dict, end_to_end: dict[str, str],
            per_layer: dict[str, str]) -> None:
    references()
    qasm_counter()
    metric_names(spec, end_to_end, per_layer)


if __name__ == "__main__":
    import run
    run_all(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")),
            run.END_TO_END, run.PER_LAYER)
    print("selftest ok")
    sys.exit(0)
