"""
Execution of gate-level modules: sampled histograms, exact output
distributions, and unitary extraction for verification.

``simulate`` and ``distribution`` share one shot-branching executor. It runs
each stretch of ops between measurements once per live measurement branch,
not once per shot. At every ``measure`` and ``qfree`` the branch's state
splits into its outcomes (``StateVector.branch``), and each child carries a
weight: in exact mode the branch probability times the outcome probability,
in sampling mode a binomial share of the branch's shots. Branches of weight
zero are dropped, so a sampled run never keeps more live branches than it
has shots. Children are visited depth first in outcome order, which draws
the binomials in a fixed order: the same seed gives the same histogram.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .qcirc import QCircFn, QCircModule, QOp
from .simulator import AncillaNotClean, StateVector, apply_gate


class SimulationError(Exception):
    pass


def _exec_op(sv: StateVector, op: QOp, qmap: dict[int, int],
             bits: dict[int, int]) -> None:
    """Run one op that does not branch the state."""
    if op.kind == "qalloc":
        try:
            sv.alloc(op.results[0])
        except ValueError as e:
            raise SimulationError(f"qalloc %{op.results[0]}: {e}") from e
        qmap[op.results[0]] = op.results[0]
    elif op.kind == "gate":
        keys = [qmap[v] for v in op.operands]
        for v, r in zip(op.operands, op.results):
            qmap[r] = qmap[v]
        if op.condition is not None:
            bit, want = op.condition
            if bits[bit] != int(want):
                return
        sv.gate(
            op.gate.name,
            keys[op.num_controls:],
            keys[: op.num_controls],
            op.param,
        )
    elif op.kind == "qfree":
        sv.measure(qmap[op.operands[0]])
    elif op.kind == "qfreez":
        try:
            sv.freez(qmap[op.operands[0]])
        except AncillaNotClean as e:
            raise SimulationError(f"qfreez %{op.operands[0]}: {e}") from e
    else:
        raise SimulationError(f"cannot execute op kind {op.kind}")


# Ops that end a stretch of straight-line execution.
_STOPS = ("measure", "qfree", "ret")


def _execute(m: QCircModule, weight: float,
             split: Callable[[float, Sequence[float]], Sequence[float]],
             all_bits: bool = False) -> dict:
    """Total weight of each output key over all measurement branches.

    ``split(w, probs)`` shares a branch's weight ``w`` out over the outcome
    probabilities of its children. Keys are the returned bits, or with
    ``all_bits`` every measured bit in measurement order.
    """
    fn = m.entry_fn
    if fn.qubit_params:
        raise SimulationError("entry function takes qubits")
    ops = fn.ops
    measure_order = [op.results[0] for op in ops if op.kind == "measure"]
    out: dict = {}
    # Each entry: next op index, state, value -> qubit key, measured bits,
    # weight.
    stack = [(0, StateVector(), {}, {}, weight)] if weight else []
    while stack:
        i, sv, qmap, bits, w = stack.pop()
        while i < len(ops) and ops[i].kind not in _STOPS:
            _exec_op(sv, ops[i], qmap, bits)
            i += 1
        if i == len(ops):
            key = ""
        elif ops[i].kind == "ret":
            order = measure_order if all_bits else ops[i].operands
            key = "".join(str(bits[v]) for v in order)
        else:
            op = ops[i]
            children = sv.branch(qmap[op.operands[0]])
            weights = split(w, [p for _, p, _ in children])
            # Pushed in reverse so that outcome 0 is visited first.
            for (outcome, _, sub), cw in reversed(list(zip(children,
                                                           weights))):
                if cw:
                    nbits = dict(bits)
                    if op.kind == "measure":
                        nbits[op.results[0]] = outcome
                    stack.append((i + 1, sub, dict(qmap), nbits, cw))
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


def distribution(m: QCircModule, all_bits: bool = False) -> dict[str, float]:
    """Exact probability of each return bitstring (branches on measurement).

    With ``all_bits`` the keys cover every measured bit in measurement order
    rather than the returned bits, which is the view a classical register
    file exposes.
    """
    return _execute(m, 1.0, lambda w, probs: [w * p for p in probs],
                    all_bits)


def module_unitary(fn: QCircFn) -> np.ndarray:
    """Unitary over ``fn.qubit_params``, requiring clean ancilla round trips.

    Allocated qubits are appended after the parameters; the extracted block
    is valid only if every column with ancillas at |0> returns them to |0>,
    which is asserted.
    """
    n_params = len(fn.qubit_params)
    alloc_ids = [op.results[0] for op in fn.ops if op.kind == "qalloc"]
    n = n_params + len(alloc_ids)
    if n > 12:
        raise SimulationError("module unitary limited to 12 qubits")
    pos = {v: i for i, v in enumerate(fn.qubit_params)}
    for a in alloc_ids:
        pos[a] = len(pos)
    u = np.eye(1 << n, dtype=complex)
    qmap = dict(pos)
    for op in fn.ops:
        if op.kind in ("qalloc", "qfreez", "qfree"):
            continue
        if op.kind == "ret" and not op.operands:
            continue
        if op.kind != "gate":
            raise SimulationError(f"op kind {op.kind} has no unitary")
        if op.condition is not None:
            raise SimulationError("classically conditioned gate has no unitary")
        keys = [qmap[v] for v in op.operands]
        for v, r in zip(op.operands, op.results):
            qmap[r] = qmap[v]
        apply_gate(
            u,
            n,
            op.gate.name,
            keys[op.num_controls:],
            keys[: op.num_controls],
            op.param,
        )
    if not alloc_ids:
        return u
    # Extract the block where all ancillas are |0> on input and output.
    a = len(alloc_ids)
    cols = np.arange(1 << n_params) << a
    sub = u[:, cols]
    block = sub[cols, :]
    offblock = np.delete(sub, cols, axis=0)
    if not np.allclose(offblock, 0.0, atol=1e-9):
        raise SimulationError("ancillas not returned to |0>")
    return block


def module_unitary_dynamic(fn: QCircFn) -> np.ndarray:
    """Unitary over ``fn.qubit_params`` by columnwise simulation.

    Unlike ``module_unitary`` this allocates and frees ancillas as the op
    stream does, so only live qubits cost memory; qfreez enforces ancilla
    cleanliness per column.
    """
    n = len(fn.qubit_params)
    size = 1 << n
    u = np.zeros((size, size), dtype=complex)
    for col in range(size):
        sv = StateVector()
        qmap: dict[int, int] = {}
        for i, p in enumerate(fn.qubit_params):
            sv.alloc(p)
            qmap[p] = p
            if (col >> (n - 1 - i)) & 1:
                sv.gate("X", [p])
        for op in fn.ops:
            if op.kind == "ret":
                continue
            if op.kind == "measure":
                raise SimulationError("measure has no unitary")
            _exec_op(sv, op, qmap, {})
        if sv.n != n:
            raise SimulationError("ancillas still live at end")
        # Undo any positional drift from interleaved alloc/free.
        perm = [sv.pos(p) for p in fn.qubit_params]
        state = sv.state.reshape([2] * n).transpose(perm).reshape(-1) \
            if perm != list(range(n)) else sv.state
        u[:, col] = state
    return u


def gates_to_fn(name: str, n: int, gates) -> QCircFn:
    """Wrap a position-based gate list as a function over n qubit params."""
    from .qcirc import append_gates

    fn = QCircFn(name)
    fn.qubit_params = tuple(range(n))
    fn.next_id = n
    wires = list(range(n))
    append_gates(fn, wires, list(gates))
    return fn
