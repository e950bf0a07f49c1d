"""
Fixed compilation pipeline: parse -> expand-and-check -> lower to basis IR
-> canonicalize -> inline bottom-up (reject recursion, make each
adjoint/predicated form once, canonicalize each function once) -> drop
unreachable functions -> lower to gates -> fold phases and peephole (at
-O1) -> multi-control decomposition (unless disabled) -> backend. The basis
IR is verified after lowering, before inlining and after pruning.

Each rewrite has one home, and each IR is built in the shape its consumers
want. The front end types and checks each kernel and classical body once,
in the walk that expands it, so diagnostics point into the source as
written, and that walk builds every tensor flat, so ``a + (b + c)`` reaches
lowering as ``a + b + c``. Lowering gives each function value its own module
function as it meets it, so no pass lifts one. Every angle is a float by the
time ``lower_ast`` builds the basis IR; adjoints and predicates are resolved
there (``qwir_passes``), whose canonicalization
also fuses each run of chained translations into one and drops identity
translations, at every -O level, so gate lowering synthesizes a run once.
Gate-level rewrites happen in ``peephole``. Phase folding runs just before its rewrite
rules, which cancel the gates that folding leaves adjacent, and before
decomposition: on the benchmark programs, folding a decomposed circuit again
merges nothing.

At -O1 (or with ``Options.reuse_qubits`` at -O0) the backends reuse zeroed
registers: a ``qalloc`` takes the register freed by a ``qfreez`` whose last
gate sits lowest in depth (``backends.allocate``) and a fresh one only when
none is free. On every benchmark program that keeps the depth of fresh
registers. -O0 alone gives every ``qalloc`` a fresh register. ``qbc stats``
reports the width the backends declare under the same options.

Every stage reports bad input by raising ``CompileError``, positioned where
the stage knows the source position. No stage takes the file name: the
entry points that do (``front``, ``compile_source``, ``compile_to_circuit``)
are wrapped by ``_names_file``, which puts it on the error as it leaves.
"""

from __future__ import annotations

import functools

from .backends import allocate, emit_qasm3, emit_qir_base
from .diagnostics import CompileError
from .expand import expand
from .lower_ast import lower_to_ir
from .lower_gates import lower_module
from .parser import parse
from .peephole import decompose_multicontrol, fold_phases, peephole
from .printer import print_program
from .qcirc import GateKind, QCircModule, print_qcirc, verify_circuit
from .qwir import QwModule, print_module, verify
from .qwir_passes import canonicalize_ir, inline, prune_unreachable, specialize
from .record import field, record

# ``front`` calls the one walk that expands, types and checks by the name
# whose span and call count the traced benchmark reports as typecheck.
# Only perfbench/spans.py still looks up ``expand``,
# ``generate_specializations``, ``canonicalize_ast`` and ``lift_lambdas``
# here (ROADMAP item 15); the pipeline calls none of them.
typecheck = expand
generate_specializations = specialize
canonicalize_ast = expand
lift_lambdas = lower_to_ir


@record
class Options:
    opt_level: int = 1
    decompose: bool = True
    reuse_qubits: bool = False  # reuse zeroed registers at -O0 too
    dims: dict[str, int] = field(default_factory=dict)


def _reuse(opts: Options) -> bool:
    """Whether the backends reuse registers freed by a ``qfreez``."""
    return opts.reuse_qubits or opts.opt_level >= 1


def _names_file(compile_fn):
    """``compile_fn(source, file, ...)`` with ``file`` put on the
    CompileError that any stage raises: the one place a diagnostic gets its
    file name."""
    @functools.wraps(compile_fn)
    def wrapper(source: str, file: str, *args):
        try:
            return compile_fn(source, file, *args)
        except CompileError as e:
            e.file = file
            raise
    return wrapper


@_names_file
def front(source: str, file: str, opts: Options):
    return typecheck(parse(source), opts.dims)


def to_qwir(tp, opts: Options) -> QwModule:
    m = lower_to_ir(tp)
    verify(m)
    canonicalize_ir(m)
    verify(m)
    inline(m)
    prune_unreachable(m)
    verify(m)
    return m


def to_gates(m: QwModule, opts: Options) -> QCircModule:
    qc = lower_module(m)
    verify_circuit(qc)
    if opts.opt_level >= 1:
        qc = peephole(fold_phases(qc))
        verify_circuit(qc)
    if opts.decompose:
        qc = decompose_multicontrol(qc)
        verify_circuit(qc)
    return qc


@_names_file
def compile_source(source: str, file: str, opts: Options, emit: str) -> str:
    tp = front(source, file, opts)
    if emit == "ast":
        return print_program(tp.program)
    m = to_qwir(tp, opts)
    if emit == "qwerty-ir":
        return print_module(m)
    qc = to_gates(m, opts)
    if emit == "qcircuit-ir":
        return print_qcirc(qc)
    if emit == "qasm":
        return emit_qasm3(qc, reuse_qubits=_reuse(opts))
    if emit == "qir":
        return emit_qir_base(qc, reuse_qubits=_reuse(opts))
    raise CompileError(f"unknown emit target {emit!r}")


@_names_file
def compile_to_circuit(source: str, file: str, opts: Options) -> QCircModule:
    return to_gates(to_qwir(front(source, file, opts), opts), opts)


@record
class Stats:
    gates: int
    t_count: int
    cx_count: int
    qubits: int

    def render(self) -> str:
        return "\n".join([
            f"gates={self.gates}",
            f"t_count={self.t_count}",
            f"cx_count={self.cx_count}",
            f"qubits={self.qubits}",
        ])


def stats_for(source: str, file: str, opts: Options) -> Stats:
    fn = compile_to_circuit(source, file, opts).entry_fn
    gates = [op for op in fn.ops if op.kind == "gate"]
    return Stats(
        len(gates),
        t_count=sum(op.gate in (GateKind.T, GateKind.TDG) for op in gates),
        cx_count=sum(op.gate is GateKind.X and op.num_controls == 1
                     for op in gates),
        qubits=allocate(fn, _reuse(opts)).width,
    )
