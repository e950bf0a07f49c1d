"""
Execution of gate-level modules: sampled histograms and exact output
distributions.

``simulate`` and ``distribution`` share one shot-branching executor. It runs
each stretch of ops between measurements once per live measurement branch,
not once per shot. At every ``measure`` and ``qfree`` the branch's state
splits into its outcomes (``StateVector.branch``), and each child carries a
weight: in exact mode the branch probability times the outcome probability,
in sampling mode a binomial share of the branch's shots. Branches of weight
zero are dropped, so a sampled run never keeps more live branches than it
has shots. Children are visited depth first in outcome order, which draws
the binomials in a fixed order: the same seed gives the same histogram.

A branch's state is the sparse state of ``qbc.simulator``: it stores only
the nonzero amplitudes, so a program's cost follows its data qubits rather
than its register width. Which qubit an op acts on depends only on the
program, so it is read from ``qcirc.wire_starts``, computed once per call: a
qubit's key in the simulator state is the value its wire began at. A branch
carries only its state, its measured bits and its weight.

Running has one error type, ``SimulationError`` of ``qbc.simulator``, which
this module re-exports. The simulator raises it at its limits (2^20 stored
amplitudes, 62 live qubits) and at a ``qfreez`` on a qubit that is not |0>;
``_execute`` puts the failing op in front of its message in one place, as
``qalloc %62:``, ``h %7:`` or ``qfreez %9:``.

This module and ``qbc.simulator`` are qbc's only numpy users: the compiler
never imports them, and ``qbc.cli`` loads them for ``qbc run`` alone.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .qcirc import QCircModule, QOp, wire_starts
from .simulator import SimulationError, StateVector


def _exec_op(sv: StateVector, op: QOp, start: dict[int, int],
             bits: dict[int, int]) -> None:
    """Run one op that does not branch the state (neither ``measure`` nor
    ``qfree``). ``start`` is ``wire_starts`` of the function: a qubit's
    key in the simulator state is the value its wire began at."""
    if op.kind == "qalloc":
        sv.alloc(op.results[0])
    elif op.kind == "gate":
        if op.condition is not None:
            bit, want = op.condition
            if bits[bit] != int(want):
                return
        keys = [start[v] for v in op.operands]
        sv.gate(op.gate.name, keys[op.num_controls:],
                keys[: op.num_controls], op.param)
    elif op.kind == "qfreez":
        sv.freez(start[op.operands[0]])
    else:
        raise SimulationError(f"cannot execute op kind {op.kind}")


# Ops that end a stretch of straight-line execution.
_STOPS = ("measure", "qfree", "ret")


def _execute(m: QCircModule, weight: float,
             split: Callable[[float, Sequence[float]], Sequence[float]]) -> dict:
    """Total weight of each string of returned bits over all measurement
    branches.

    ``split(w, probs)`` shares a branch's weight ``w`` out over the outcome
    probabilities of its children.
    """
    fn = m.entry_fn
    if fn.qubit_params:
        raise SimulationError("entry function takes qubits")
    ops = fn.ops
    start = wire_starts(fn)
    out: dict = {}
    # Each entry: next op index, state, measured bits, weight.
    stack = [(0, StateVector(), {}, weight)] if weight else []
    while stack:
        i, sv, bits, w = stack.pop()
        try:
            while i < len(ops) and ops[i].kind not in _STOPS:
                _exec_op(sv, ops[i], start, bits)
                i += 1
        except SimulationError as e:
            # Name the failing op by its kind (a gate by its name) and the
            # first value it defines, or uses when it defines none.
            op = ops[i]
            name = op.gate.value if op.kind == "gate" else op.kind
            raise SimulationError(
                f"{name} %{(op.results or op.operands)[0]}: {e}") from e
        if i == len(ops):
            key = ""
        elif ops[i].kind == "ret":
            key = "".join(str(bits[v]) for v in ops[i].operands)
        else:
            op = ops[i]
            children = sv.branch(start[op.operands[0]])
            weights = split(w, [p for _, p, _ in children])
            # Pushed in reverse so that outcome 0 is visited first.
            for (outcome, _, sub), cw in reversed(list(zip(children,
                                                           weights))):
                if cw:
                    nbits = dict(bits)
                    if op.kind == "measure":
                        nbits[op.results[0]] = outcome
                    stack.append((i + 1, sub, nbits, cw))
            continue
        out[key] = out.get(key, 0) + w
    return out


def simulate(m: QCircModule, shots: int, seed: int) -> dict[str, int]:
    """Sampled histogram of the entry function's returned bits.

    The shots are shared out binomially at each measurement, so the counts
    follow the exact multinomial of ``distribution``; one seed always gives
    the same histogram.
    """
    if shots < 0:
        raise SimulationError(f"shot count must be >= 0, got {shots}")
    rng = np.random.default_rng(seed)

    def split(n: int, probs: Sequence[float]) -> Sequence[int]:
        if len(probs) == 1:
            return (n,)
        ones = int(rng.binomial(n, probs[1]))
        return (n - ones, ones)

    return _execute(m, shots, split)


def distribution(m: QCircModule) -> dict[str, float]:
    """Exact probability of each return bitstring (branches on measurement)."""
    return _execute(m, 1.0, lambda w, probs: [w * p for p in probs])

