"""Numeric oracles the tests check the compiler against: statevectors of
basis vectors, span projectors, translation unitaries, the dense gate kernel
and gate-list unitaries, the dense view of a sparse simulator state, the
unitary of a gate-level function and equality up to a global phase; a
circuit that returns every bit it measures, and a gate lowering whose preps
are parameters; a reference walker that branches the state at every
measurement; the walk of vector sets that once decided span equivalence,
with its prefix factoring of basis literals by prefix and suffix counts;
random translations whose two bases span one space, and near misses of
them; a reference standardization planner that walks two deques of
elements; a reference permutation synthesis over numpy tables; a
per-character reference lexer; also the source of a pipe chain of
single-qubit stages.

These are brute force on purpose and live beside the tests, not in the
compiler: ``qbc.simulator`` keeps only what ``qbc run`` executes.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Iterable, Sequence

import numpy as np

from qbc.ast_nodes import Pos
from qbc.bases import (
    Basis,
    BasisElement,
    BasisLiteral,
    BasisVector,
    BuiltinBasis,
    Prim,
    as_literal,
    fully_spans,
    vector_from_chars,
)
from qbc.diagnostics import CompileError
from qbc.lexer import KEYWORDS, Token
from qbc.lower_gates import lower_module
from qbc.qcirc import (
    Gate, GateKind, QCircFn, QCircModule, QOp, append_gates, wire_starts,
)
from qbc.qwir import QwModule
from qbc.run import SimulationError, _exec_op, distribution
from qbc.simulator import StateVector
from qbc.synth import StdEntry, _transform_gates, _with_offsets


def lit(*specs) -> BasisLiteral:
    """A literal from qubit-literal strings like '01', or pairs like
    ('1', pi) that give a vector its phase."""
    return BasisLiteral(tuple(
        vector_from_chars(*spec) if isinstance(spec, tuple)
        else vector_from_chars(spec) for spec in specs))


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
        out = out * np.exp(1j * v.phase)
    return out


def fourier_column(dim: int, k: int) -> np.ndarray:
    n = 1 << dim
    j = np.arange(n)
    return np.exp(2j * np.pi * j * k / n) / math.sqrt(n)


def element_states(e: BasisElement) -> list[np.ndarray]:
    """All vectors of an element as statevectors, in enumeration order."""
    if e.prim is Prim.FOURIER:
        return [fourier_column(e.dim, k) for k in range(1 << e.dim)]
    return [vector_state(v) for v in as_literal(e).vectors]


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
    """Apply one gate in place to a dense ``state`` (shape (2^n,) or
    (2^n, cols)); qubit 0 is the most significant bit of an index.

    The gate acts on a view with one axis per qubit and a last axis for the
    columns (of length 1 for a vector): controls fix their axis to 1 and
    each target axis is split into its 0 and 1 halves. This is the reference
    the sparse kernel of ``qbc.simulator`` is checked against.
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


def returning_all_bits(m: QCircModule) -> QCircModule:
    """``m`` with its entry's ``ret`` reading every ``measure`` result in op
    order: the bits a classical register file holds, as the circuit
    ``qasm_reader`` builds from QASM returns them."""
    fn = m.entry_fn
    bits = tuple(op.results[0] for op in fn.ops if op.kind == "measure")
    ops = [QOp("ret", bits) if op.kind == "ret" else op for op in fn.ops]
    return QCircModule({m.entry: QCircFn(fn.name, ops, fn.qubit_params,
                                         fn.next_id)}, m.entry)


def lower_with_params(m: QwModule) -> QCircModule:
    """Gate lowering whose prepped qubits become parameters and whose
    measurements go, so that ``module_unitary`` reads the unitary between
    them (for a program that preps std zeros and measures in std, neither
    of which emits a gate)."""
    qc = lower_module(m)
    fn = qc.entry_fn
    fn.qubit_params = tuple(op.results[0] for op in fn.ops
                            if op.kind == "qalloc")
    fn.ops = [op for op in fn.ops
              if op.kind not in ("qalloc", "measure", "ret")] + [QOp("ret")]
    return qc


def dense_state(sv: StateVector) -> np.ndarray:
    """The amplitudes of ``sv`` scattered into a dense 2^n vector whose
    index has one bit per key of ``sv.order``, the first key most
    significant."""
    n = sv.n
    pos = np.zeros(len(sv.idx), dtype=np.int64)
    for i, key in enumerate(sv.order):
        pos |= ((sv.idx >> sv.bits[key]) & 1) << (n - 1 - i)
    out = np.zeros(1 << n, dtype=complex)
    out[pos] = sv.amp
    return out


# The module-unitary oracle reads the final state as a dense 2^(2n) matrix,
# so it stops at 20 live qubits: a dense vector of 2^20 amplitudes.
MODULE_UNITARY_LIVE = 20


def module_unitary(fn: QCircFn) -> np.ndarray:
    """Unitary of ``fn`` over ``fn.qubit_params``, from one simulation.

    Each parameter is entangled with a reference qubit (H on the reference,
    then CX onto the parameter), so running the ops once leaves the state
    sum_x U|x>|x> / sqrt(2^n); read with the parameters as rows, that is
    U / sqrt(2^n). Ancillas must come back to |0> at their ``qfreez``, and
    ``measure`` or ``qfree`` has no unitary: both raise ``SimulationError``,
    as does a circuit that needs more than ``MODULE_UNITARY_LIVE`` live
    qubits (references included).
    """
    params = list(fn.qubit_params)
    refs = [("ref", p) for p in params]
    sv = StateVector()

    def check_live() -> None:
        if sv.n > MODULE_UNITARY_LIVE:
            raise SimulationError(
                f"{len(params)} parameters: module-unitary oracle limited "
                f"to {MODULE_UNITARY_LIVE} live qubits")

    for key in params + refs:
        sv.alloc(key)
    check_live()
    for p, ref in zip(params, refs):
        sv.gate("H", [ref])
        sv.gate("X", [p], [ref])
    start = wire_starts(fn)
    for op in fn.ops:
        if op.kind != "ret":
            _exec_op(sv, op, start, {})
            check_live()
    if sv.order != params + refs:
        raise SimulationError("qubits other than the parameters live at end")
    size = 1 << len(params)
    return dense_state(sv).reshape(size, size) * math.sqrt(size)


# Ops that end a stretch of straight-line execution in the reference walker.
_STOPS = ("measure", "qfree", "ret")


def reference_execute(m: QCircModule, weight: float,
                      split: Callable[[float, Sequence[float]],
                                      Sequence[float]]) -> dict:
    """Total weight of each string of returned bits over all measurement
    branches, splitting the state at every ``measure`` and ``qfree``.

    The executor ``qbc.run`` had before it read trailing measurements off
    the stored rows: it makes 2^k - 1 ``branch`` calls for k measurements
    after the last gate. ``split(w, probs)`` shares a branch's weight ``w``
    out over the outcome probabilities of its children.
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


def reference_distribution(m: QCircModule) -> dict[str, float]:
    """Exact probability of each return bitstring, branching on every
    measurement: the oracle ``qbc.run.distribution`` is checked against."""
    return reference_execute(m, 1.0, lambda w, probs: [w * p for p in probs])


def checked_distribution(m: QCircModule) -> dict[str, float]:
    """``qbc.run.distribution`` of ``m``, asserted equal to the reference
    walker's within 1e-12 on every bitstring."""
    want, got = reference_distribution(m), distribution(m)
    for key in set(want) | set(got):
        assert abs(want.get(key, 0.0) - got.get(key, 0.0)) <= 1e-12, key
    return got


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
    exactly ``bl2``'s and each suffix must follow every one of them."""
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


def reference_span_equivalence(b_in: Basis, b_out: Basis) -> bool:
    """Whether two bases of one dim span one space, by the walk of vector
    sets that once decided it: strip each literal's phases and sort its
    vectors, then pop one element per side and factor the wider one at the
    narrower one's width (two full spans leave a builtin remainder; a
    literal loses a prefix set by ``factor_literal_by_counts``). Polynomial
    in the elements and vectors, so it reaches past the dense oracles;
    ``bases.align`` is checked against it."""
    def normal(e: BasisElement) -> BasisElement:
        if isinstance(e, BuiltinBasis):
            return e
        return BasisLiteral(tuple(sorted(
            (BasisVector(e.prim, v.eigenbits) for v in e.vectors),
            key=lambda v: v.eigenbits)))

    ldq, rdq = deque(map(normal, b_in.elements)), deque(map(normal, b_out.elements))
    while ldq and rdq:
        left, right = ldq.popleft(), rdq.popleft()
        if left.dim == right.dim:
            if left == right or fully_spans(left) and fully_spans(right):
                continue
            return False
        big, small, bigdq = ((left, right, ldq) if left.dim > right.dim
                             else (right, left, rdq))
        if fully_spans(big) and fully_spans(small):
            bigdq.appendleft(BuiltinBasis(big.prim, big.dim - small.dim))
            continue
        if isinstance(big, BuiltinBasis):
            return False
        if fully_spans(small):
            small = as_literal(BuiltinBasis(big.prim, small.dim))
        rest = factor_literal_by_counts(big, small)
        if rest is None:
            return False
        bigdq.appendleft(rest)
    return not ldq and not rdq


_PHASES = (None, 0.0, math.pi, math.pi / 2, -math.pi / 4, 0.3)


def random_span_pair(rng: random.Random, dim: int,
                     widest: int = 5) -> tuple[Basis, Basis]:
    """Two bases of ``dim`` qubits that span one space, drawn from ``rng``.

    The space is a row of factors: free qubits, and sets of one to three
    qubits that some std/pm/ij literal pins. Each side groups runs of
    factors into its own elements, at most ``widest`` qubits wide: free
    qubits alone become a std/pm/ij/fourier builtin or a full literal of
    any std/pm/ij prim, a run with pinned factors of one prim a literal of
    that prim holding their product. Literal vectors come shuffled, with
    random phases, so the two sides cut the space at different qubits and
    in different vector orders, which is where alignment merges.
    """
    factors: list[tuple[int, Prim | None, list[str]]] = []
    while sum(w for w, _, _ in factors) < dim:
        left = dim - sum(w for w, _, _ in factors)
        if rng.random() < 0.5:
            factors.append((1, None, ["0", "1"]))
            continue
        w = rng.randint(1, min(left, 3))
        every = [format(k, f"0{w}b") for k in range(1 << w)]
        factors.append((w, rng.choice([Prim.STD, Prim.PM, Prim.IJ]),
                        rng.sample(every, rng.randint(1, len(every) - 1))))

    def side() -> Basis:
        elements: list[BasisElement] = []
        i = 0
        while i < len(factors):
            j, width = i + 1, factors[i][0]
            prims = {factors[i][1]} - {None}
            while j < len(factors) and rng.random() < 0.6:
                w, prim, _ = factors[j]
                if width + w > widest or prim is not None and prims - {prim}:
                    break
                prims |= {prim} - {None}
                width += w
                j += 1
            run = factors[i:j]
            if not prims and rng.random() < 0.5:
                elements.append(BuiltinBasis(rng.choice(list(Prim)), width))
            else:
                prim = prims.pop() if prims else rng.choice(
                    [Prim.STD, Prim.PM, Prim.IJ])
                bits = [""]
                for _, _, fbits in run:
                    bits = [a + b for a in bits for b in fbits]
                rng.shuffle(bits)
                elements.append(BasisLiteral(tuple(
                    BasisVector(prim, b, rng.choice(_PHASES)) for b in bits)))
            i = j
        return Basis(tuple(elements))

    return side(), side()


def near_miss(rng: random.Random, b: Basis) -> Basis:
    """``b`` with one literal changed: a vector dropped, or its prim
    swapped for another std/pm/ij prim; ``b`` itself if it has no literal.
    The result may still span what ``b`` spans."""
    at = [i for i, e in enumerate(b.elements) if isinstance(e, BasisLiteral)]
    if not at:
        return b
    i = rng.choice(at)
    e = b.elements[i]
    if len(e.vectors) > 1 and rng.random() < 0.5:
        drop = rng.randrange(len(e.vectors))
        new = BasisLiteral(e.vectors[:drop] + e.vectors[drop + 1:])
    else:
        prim = rng.choice([p for p in (Prim.STD, Prim.PM, Prim.IJ)
                           if p is not e.prim])
        new = BasisLiteral(tuple(BasisVector(prim, v.eigenbits, v.phase)
                                 for v in e.vectors))
    return Basis(b.elements[:i] + (new,) + b.elements[i + 1:])


class _Pad:
    """The rest of an inseparable element that the walk below has consumed
    on one side only: it standardizes nothing on that side, and whatever it
    meets on the other side is conditional."""

    def __init__(self, dim: int):
        self.dim = dim


def reference_plan_standardization(
    b_in: Basis, b_out: Basis
) -> tuple[tuple[StdEntry, ...], tuple[StdEntry, ...]]:
    """``synth.plan_standardization`` as a walk of two deques: pop one
    element per side, cut a larger separable element to the smaller one's
    width, and pad on after an inseparable one. The planner once worked
    this way; it is checked against it."""
    ldq, rdq = deque(_with_offsets(b_in)), deque(_with_offsets(b_out))
    lstd: list[StdEntry] = []
    rstd: list[StdEntry] = []
    while ldq and rdq:
        l, lo = ldq.popleft()
        r, ro = rdq.popleft()
        l_pad = isinstance(l, _Pad)
        r_pad = isinstance(r, _Pad)
        unconditional = not l_pad and not r_pad and l.prim is r.prim
        if l.dim == r.dim:
            if not l_pad:
                lstd.append(StdEntry(l.prim, l.dim, lo, not unconditional))
            if not r_pad:
                rstd.append(StdEntry(r.prim, r.dim, ro, not unconditional))
            continue
        if l.dim > r.dim:
            big, bo, small, so = l, lo, r, ro
            bigstd, smallstd, bigdq = lstd, rstd, ldq
        else:
            big, bo, small, so = r, ro, l, lo
            bigstd, smallstd, bigdq = rstd, lstd, rdq
        delta = big.dim - small.dim
        big_pad = isinstance(big, _Pad)
        small_pad = isinstance(small, _Pad)
        if not big_pad and big.prim.separable:
            if not small_pad:
                smallstd.append(
                    StdEntry(small.prim, small.dim, so, not unconditional))
            bigstd.append(StdEntry(big.prim, small.dim, bo, not unconditional))
            bigdq.appendleft((BuiltinBasis(big.prim, delta), bo + small.dim))
        else:
            if not small_pad:
                smallstd.append(StdEntry(small.prim, small.dim, so, True))
            if not big_pad:
                bigstd.append(StdEntry(big.prim, big.dim, bo, True))
            bigdq.appendleft((_Pad(delta), bo + small.dim))
    return tuple(lstd), tuple(rstd)


def synth_permutation_by_arrays(perm: Sequence[int]) -> list[Gate]:
    """The bidirectional transformation-based synthesis of
    ``synth.synth_permutation`` with the table and its inverse kept as
    numpy arrays, each step a mask over all rows: the reference its gate
    lists must equal, gate for gate."""
    size = len(perm)
    d = size.bit_length() - 1
    f = np.array(perm, dtype=np.int64)
    inv = np.empty_like(f)
    inv[f] = np.arange(size)

    def map_values(steps, f, inv):
        for controls, target in steps:
            hit = np.flatnonzero(f & controls == controls)
            f[hit] ^= target
            inv[f[hit]] = hit

    gates_in: list[tuple[int, int]] = []
    gates_out: list[tuple[int, int]] = []
    for x in range(size):
        y = int(f[x])
        if y == x:
            continue
        x_in = int(inv[x])
        if bin(x ^ y).count("1") <= bin(x ^ x_in).count("1"):
            steps = _transform_gates(y, x, d)
            map_values(steps, f, inv)
            gates_out.extend(steps)
        else:
            steps = _transform_gates(x, x_in, d)
            map_values(steps[::-1], inv, f)
            gates_in.extend(reversed(steps))
    assert (f == np.arange(size)).all()
    return [
        Gate(GateKind.X, (d - t.bit_length(),),
             tuple(d - 1 - k for k in range(d - 1, -1, -1) if c & (1 << k)))
        for c, t in gates_in + gates_out[::-1]]


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


REFERENCE_DIGITS = "0123456789"  # not str.isdigit(), which accepts '²'
REFERENCE_PUNCT = [
    "[[", ">>", "->", "|", "&", "~", "+", "-", "*", "/", "@",
    "(", ")", "{", "}", "[", "]", ",", ":", ";", "=", "^", ".",
]


def reference_tokenize(source: str) -> list[Token]:
    """``qbc.lexer.tokenize`` written as a scan of one character at a time:
    the same tokens, positions and diagnostics."""
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        pos = Pos(line, col)
        if c == "'":
            j = i + 1
            while j < n and source[j] != "'":
                if source[j] == "\n":
                    raise CompileError("unterminated qubit literal", pos)
                j += 1
            if j >= n:
                raise CompileError("unterminated qubit literal", pos)
            body = source[i + 1 : j]
            if not body or any(ch not in "01pmij" for ch in body):
                raise CompileError(f"bad qubit literal '{body}'", pos)
            tokens.append(Token("QLIT", body, pos))
            col += j - i + 1
            i = j + 1
            continue
        if c in REFERENCE_DIGITS:
            j = i
            while j < n and source[j] in REFERENCE_DIGITS:
                j += 1
            if (j < n and source[j] == "." and j + 1 < n
                    and source[j + 1] in REFERENCE_DIGITS):
                j += 1
                while j < n and source[j] in REFERENCE_DIGITS:
                    j += 1
                tokens.append(Token("FLOAT", source[i:j], pos))
            else:
                tokens.append(Token("INT", source[i:j], pos))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "IDENT"
            tokens.append(Token(kind, text, pos))
            col += j - i
            i = j
            continue
        for p in REFERENCE_PUNCT:
            if source.startswith(p, i):
                tokens.append(Token(p, p, pos))
                col += len(p)
                i += len(p)
                break
        else:
            raise CompileError(f"unexpected character {c!r}", pos)
    tokens.append(Token("EOF", "", Pos(line, col)))
    return tokens
