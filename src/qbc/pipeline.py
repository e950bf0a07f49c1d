"""
Fixed compilation pipeline: parse -> expand -> typecheck -> flatten tensors
-> lower to basis IR -> lift lambdas, canonicalize, reject recursion ->
specialize each adjoint/predicated callee once -> inline, canonicalizing
each round -> lower to gates -> fold phases and peephole (at -O1) ->
multi-control decomposition (unless disabled) -> backend.

Each rewrite has one home. The front end typechecks the expanded program
once, so diagnostics point into the source as written; the only AST rewrite,
tensor flattening (``canon_ast``), cannot change a type, so its output is
handed on with that typecheck's signatures. Adjoints, predicates and constant
angles are resolved in the basis IR (``qwir_passes``), whose canonicalization
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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .backends import BackendError, allocate, emit_qasm3, emit_qir_base
from .canon_ast import canonicalize_ast
from .diagnostics import CompileError, Diagnostic
from .expand import expand
from .lower_ast import lower_to_ir
from .lower_gates import LowerError, lower_module
from .parser import parse
from .peephole import decompose_multicontrol, fold_phases, peephole
from .printer import print_program
from .qcirc import GateKind, QCircModule, print_qcirc, verify_circuit
from .qwir import QwModule, print_module, verify
from .qwir_passes import (
    PassError, canonicalize_ir, check_acyclic, generate_specializations,
    inline, lift_lambdas, prune_unreachable,
)
from .typecheck import typecheck


@dataclass
class Options:
    opt_level: int = 1
    decompose: bool = True
    reuse_qubits: bool = False  # reuse zeroed registers at -O0 too
    dims: dict[str, int] = field(default_factory=dict)


def _reuse(opts: Options) -> bool:
    """Whether the backends reuse registers freed by a ``qfreez``."""
    return opts.reuse_qubits or opts.opt_level >= 1


def front(source: str, file: str, opts: Options):
    prog = parse(source, file)
    prog = expand(prog, opts.dims, file)
    tp = typecheck(prog, file)
    return replace(tp, program=canonicalize_ast(tp.program))


def to_qwir(tp, opts: Options) -> QwModule:
    m = lower_to_ir(tp)
    verify(m)
    try:
        lift_lambdas(m)
        canonicalize_ir(m)
        prune_unreachable(m)
        check_acyclic(m)
        generate_specializations(m)
        verify(m)
        inline(m)
    except PassError as e:
        raise CompileError(Diagnostic("error", str(e), file=tp.file))
    verify(m)
    return m


def to_gates(m: QwModule, opts: Options,
             file: Optional[str] = None) -> QCircModule:
    try:
        qc = lower_module(m)
    except LowerError as e:
        raise CompileError(Diagnostic("error", str(e), file=file))
    verify_circuit(qc)
    if opts.opt_level >= 1:
        qc = peephole(fold_phases(qc))
        verify_circuit(qc)
    if opts.decompose:
        qc = decompose_multicontrol(qc)
        verify_circuit(qc)
    return qc


def compile_source(source: str, file: str, opts: Options, emit: str) -> str:
    tp = front(source, file, opts)
    if emit == "ast":
        return print_program(tp.program)
    m = to_qwir(tp, opts)
    if emit == "qwerty-ir":
        return print_module(m)
    qc = to_gates(m, opts, file)
    if emit == "qcircuit-ir":
        return print_qcirc(qc)
    try:
        if emit == "qasm":
            return emit_qasm3(qc, reuse_qubits=_reuse(opts),
                              allow_multi_control=not opts.decompose)
        if emit == "qir":
            return emit_qir_base(qc, reuse_qubits=_reuse(opts))
    except BackendError as e:
        raise CompileError(Diagnostic("error", str(e), file=file))
    raise CompileError(Diagnostic("error", f"unknown emit target {emit!r}"))


def compile_to_circuit(source: str, file: str, opts: Options) -> QCircModule:
    tp = front(source, file, opts)
    m = to_qwir(tp, opts)
    return to_gates(m, opts, file)


@dataclass
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
