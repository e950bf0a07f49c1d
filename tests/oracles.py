"""Numeric oracles the tests check the compiler against: statevectors of
basis vectors, span projectors, translation unitaries, gate-list unitaries,
the unitary of a gate-level function and equality up to a global phase;
a reference prefix factoring of basis literals by prefix and suffix counts;
also the source of a pipe chain of single-qubit stages.

These are brute force on purpose and live beside the tests, not in the
compiler: ``qbc.simulator`` keeps only what ``qbc run`` executes.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from qbc.bases import (
    Basis,
    BasisElement,
    BasisLiteral,
    BasisVector,
    BuiltinBasis,
    Prim,
    builtin_vectors,
)
from qbc.qcirc import Gate, QCircFn, QOp, append_gates, wire_starts
from qbc.run import SimulationError, _exec_op
from qbc.simulator import StateVector, apply_gate

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


def _bit(n: int, pos: int) -> int:
    return 1 << (n - 1 - pos)


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


def gates_to_fn(name: str, n: int, gates: Iterable[Gate],
                ancillas: int = 0) -> QCircFn:
    """Wrap a position-based gate list as a function over n qubit params.

    Positions n to n + ancillas - 1 are qalloc'd ancillas, freed with
    ``qfreez`` after the last gate (as gate lowering does for an embed).
    """
    fn = QCircFn(name)
    fn.qubit_params = tuple(range(n))
    fn.next_id = n
    wires = list(range(n))
    for _ in range(ancillas):
        wires.append(fn.new_id())
        fn.ops.append(QOp("qalloc", results=(wires[-1],)))
    append_gates(fn, wires, list(gates))
    fn.ops.extend(QOp("qfreez", (w,)) for w in wires[n:])
    return fn


def module_unitary(fn: QCircFn) -> np.ndarray:
    """Unitary of ``fn`` over ``fn.qubit_params``, from one simulation.

    Each parameter is entangled with a reference qubit (H on the reference,
    then CX onto the parameter), so running the ops once leaves the state
    sum_x U|x>|x> / sqrt(2^n); read with the parameters as rows, that is
    U / sqrt(2^n). Ancillas must come back to |0> at their ``qfreez``, and
    ``measure`` or ``qfree`` has no unitary: both raise ``SimulationError``,
    as does a circuit that needs more than the simulator's 20 live qubits
    (references included).
    """
    params = list(fn.qubit_params)
    refs = [("ref", p) for p in params]
    sv = StateVector()
    try:
        for key in params + refs:
            sv.alloc(key)
    except ValueError as e:
        raise SimulationError(f"{len(params)} parameters: {e}") from e
    for p, ref in zip(params, refs):
        sv.gate("H", [ref])
        sv.gate("X", [p], [ref])
    start = wire_starts(fn)
    for op in fn.ops:
        if op.kind != "ret":
            _exec_op(sv, op, start, {})
    if sv.order != params + refs:
        raise SimulationError("qubits other than the parameters live at end")
    size = 1 << len(params)
    return sv.state.reshape(size, size) * math.sqrt(size)


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray,
                             atol: float = 1e-9) -> bool:
    """Whether u = e^{i phi} v for some phi, read off v's largest entry."""
    if u.shape != v.shape:
        return False
    k = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(v[k]) <= atol:
        return bool(np.allclose(u, v, atol=atol))
    phase = u[k] / v[k]
    return bool(abs(abs(phase) - 1.0) <= atol
                and np.allclose(u, phase * v, atol=atol))


def factor_literal_by_counts(bl: BasisLiteral,
                            bl2: BasisLiteral) -> BasisLiteral | None:
    """The remainder of factoring normalized literal ``bl2`` out of
    normalized literal ``bl`` as a prefix, or None: the prefixes must be
    exactly ``bl2``'s and each suffix must follow every one of them. The
    span check once factored this way; ``bases.factor_element`` is checked
    against it."""
    assert bl.dim > bl2.dim
    if bl.prim is not bl2.prim:
        return None
    m, m2 = len(bl.vectors), len(bl2.vectors)
    if m % m2 != 0:
        return None
    n = bl2.dim
    wanted = {v.eigenbits for v in bl2.vectors}
    prefixes = {v.eigenbits[:n] for v in bl.vectors}
    if len(prefixes) < m2 or not prefixes <= wanted:
        return None
    suffix_counts: dict[str, int] = {}
    for v in bl.vectors:
        suf = v.eigenbits[n:]
        suffix_counts[suf] = suffix_counts.get(suf, 0) + 1
    if any(c < m2 for c in suffix_counts.values()):
        return None
    first = bl2.vectors[0].eigenbits
    return BasisLiteral(tuple(
        BasisVector(bl.prim, v.eigenbits[n:])
        for v in bl.vectors
        if v.eigenbits[:n] == first
    ))


def pipe_chain_source(stages: Sequence[str]) -> str:
    """A program that pipes '0' through single-qubit stage calls and
    measures it.

    Stage ``flip<v>`` is ``{'0', '1'} >> {'1' @ (a), '0'}`` and ``keep<v>``
    is ``{'0', '1'} >> {'0' @ (a), '1' @ (b)}``, with a = pi (v + 1) / 8 and
    b = pi (v + 5) / 8, so only the flips move |0>. A ``pm_`` prefix names
    the same stage written in the pm basis (``p`` for ``0``, ``m`` for
    ``1``). The basis IR fuses a run of std stages into one translation;
    a std stage next to a pm stage is not fused, and on its own a flip
    emits ``x; p(a)`` and a keep ``x; p(a); x; p(b)``.
    """
    defs = []
    for name in sorted(set(stages)):
        pm = name.startswith("pm_")
        kind = name[3:] if pm else name
        zero, one = ("p", "m") if pm else ("0", "1")
        v = int(kind[4:])
        a, b = f"pi * {v + 1} / 8", f"pi * {v + 5} / 8"
        out = (f"'{one}' @ ({a}), '{zero}'" if kind.startswith("flip")
               else f"'{zero}' @ ({a}), '{one}' @ ({b})")
        defs.append(f"qpu {name}(q: qubit[1]) -> qubit[1] rev {{\n"
                    f"    q | ({{'{zero}', '{one}'}} >> {{{out}}})\n}}\n")
    calls = "".join(f"    | {s}\n" for s in stages)
    return ("\n".join(defs) + "\nqpu main() -> bit[1] {\n    '0'\n" + calls
            + "    | std.measure\n}\n")
