"""
Execution of gate-level modules: sampled histograms and exact output
distributions.

``simulate`` and ``distribution`` share one shot-branching executor. It runs
each stretch of ops between measurements once per live measurement branch,
not once per shot. At a mid-circuit ``measure`` or ``qfree`` the branch's
state splits into its outcomes (``StateVector.branch``). The trailing run of
``measure`` and ``qfree`` ops before ``ret`` does not split: a branch that
reaches it reads the joint distribution of the bits ``ret`` returns off its
stored rows in one pass (``StateVector.joint``), marginalizing the qubits it
measures without returning and the ones it discards. Each child or joint
outcome carries a weight: in exact mode the branch probability times the
outcome probability, in sampling mode its share of the branch's shots from
one multinomial draw. Outcomes of weight zero are dropped, so a sampled run
never keeps more live branches than it has shots. Children are visited depth
first in outcome order and joint outcomes in ascending order, which draws
the multinomials in a fixed order: the same seed gives the same histogram.

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
``qalloc %62:``, ``h %7:`` or ``qfreez %9:``. ``simulate`` raises it for a
shot count outside [0, 2^63 - 1].

This module and ``qbc.simulator`` are qbc's only numpy users: the compiler
never imports them, and ``qbc.cli`` loads them for ``qbc run`` alone.
"""

from __future__ import annotations

from typing import Callable

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


# Ops that split a branch's state into its outcomes.
_SPLITS = ("measure", "qfree")


def _execute(m: QCircModule, weight: float,
             split: Callable[[float, np.ndarray], list]) -> dict:
    """Total weight of each string of returned bits over all measurement
    branches.

    ``split(w, probs)`` shares a branch's weight ``w`` out over the
    probabilities ``probs`` of its outcomes, in order: the children of a
    mid-circuit split, or the joint outcomes of the trailing measurements.
    """
    fn = m.entry_fn
    if fn.qubit_params:
        raise SimulationError("entry function takes qubits")
    ops = fn.ops
    start = wire_starts(fn)
    tail, ret = len(ops), ()
    if ops and ops[-1].kind == "ret":
        tail, ret = tail - 1, ops[-1].operands
    # The trailing run of measure and qfree ops before ret: a branch that
    # reaches it is read off its rows instead of split.
    while tail and ops[tail - 1].kind in _SPLITS:
        tail -= 1
    measured = {op.results[0]: start[op.operands[0]]
                for op in ops[tail:] if op.kind == "measure"}
    # The qubits whose trailing measurements ret returns, each once, in
    # return order: key j is outcome bit len(keys) - 1 - j, so it is
    # character j of the outcome written in binary.
    keys = list(dict.fromkeys(measured[v] for v in ret if v in measured))
    col = {key: j for j, key in enumerate(keys)}
    width = f"0{len(keys)}b"
    out: dict = {}
    # Each entry: next op index, state, measured bits, weight.
    stack = [(0, StateVector(), {}, weight)] if weight else []
    while stack:
        i, sv, bits, w = stack.pop()
        try:
            while i < tail and ops[i].kind not in _SPLITS:
                _exec_op(sv, ops[i], start, bits)
                i += 1
        except SimulationError as e:
            # Name the failing op by its kind (a gate by its name) and the
            # first value it defines, or uses when it defines none.
            op = ops[i]
            name = op.gate.value if op.kind == "gate" else op.kind
            raise SimulationError(
                f"{name} %{(op.results or op.operands)[0]}: {e}") from e
        if i == tail:
            outcomes, probs = sv.joint(keys)
            # Bits measured before the tail are fixed on this branch; each
            # other character is a field that names its outcome bit.
            template = "".join(f"{{{col[measured[v]]}}}" if v in measured
                               else str(bits[v]) for v in ret)
            for outcome, cw in zip(outcomes.tolist(), split(w, probs)):
                if cw:
                    key = template.format(*format(outcome, width))
                    out[key] = out.get(key, 0) + cw
            continue
        op = ops[i]
        children = sv.branch(start[op.operands[0]])
        weights = split(w, np.array([p for _, p, _ in children]))
        # Pushed in reverse so that outcome 0 is visited first.
        for (outcome, _, sub), cw in reversed(list(zip(children, weights))):
            if cw:
                nbits = dict(bits)
                if op.kind == "measure":
                    nbits[op.results[0]] = outcome
                stack.append((i + 1, sub, nbits, cw))
    return out


# The most shots ``rng.multinomial`` takes: the largest int64.
MAX_SHOTS = (1 << 63) - 1


def simulate(m: QCircModule, shots: int, seed: int) -> dict[str, int]:
    """Sampled histogram of the entry function's returned bits.

    Each branch's shots are shared out over its outcomes by one
    ``rng.multinomial`` draw: over the two children at a mid-circuit
    split, and over the joint outcomes, in ascending order, at the
    trailing measurements. So the counts follow the exact multinomial of
    ``distribution``, and one seed always gives the same histogram.
    """
    if not 0 <= shots <= MAX_SHOTS:
        raise SimulationError(
            f"shot count must be in [0, 2^63 - 1], got {shots}")
    if seed < 0:
        raise SimulationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    return _execute(m, shots, lambda n, probs: rng.multinomial(
        n, probs / probs.sum()).tolist())


def distribution(m: QCircModule) -> dict[str, float]:
    """Exact probability of each return bitstring: the weight of each
    measurement branch times the joint probabilities of its trailing
    measurements."""
    return _execute(m, 1.0, lambda w, probs: (w * probs).tolist())
