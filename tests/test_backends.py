"""Backend semantics beyond the goldens' text: every gate kind round-trips
through the OpenQASM writer and reader with its unitary unchanged, every
QIR legalization is exact, and every QIR module the compiler emits parses
with ``llvm-as``."""

import pathlib
import shutil
import subprocess

import numpy as np
import pytest

from qbc.backends import emit_qasm3, emit_qir_base, _legalize_for_qir
from qbc.diagnostics import CompileError
from qbc.pipeline import Options, compile_source
from qbc.qcirc import (
    N_TARGETS, Gate, GateKind, QCircFn, QCircModule, QOp, append_gates,
)
from oracles import module_unitary, unitary_of
from qasm_reader import read_qasm3

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCHMARKS = ["bell", "bv", "dj", "grover", "period", "simon", "teleport"]

ONE_GATE = [(kind, nctrl) for kind in GateKind for nctrl in range(3)]


def one_gate(kind: GateKind, nctrl: int) -> Gate:
    """``kind`` with its controls at the first positions, then its targets."""
    n = nctrl + N_TARGETS[kind]
    return Gate(kind, tuple(range(nctrl, n)), tuple(range(nctrl)),
                0.3 if kind is GateKind.P else 0.0)


def one_gate_module(gate: Gate) -> QCircModule:
    """A module that allocates register i for position i, applies ``gate``
    and frees every register."""
    fn = QCircFn("main")
    wires = []
    for _ in range(len(gate.controls) + len(gate.targets)):
        wires.append(fn.new_id())
        fn.ops.append(QOp("qalloc", results=(wires[-1],)))
    append_gates(fn, wires, [gate])
    fn.ops.extend(QOp("qfree", (w,)) for w in wires)
    fn.ops.append(QOp("ret"))
    return QCircModule({"main": fn})


def allocated_unitary(m: QCircModule) -> np.ndarray:
    """The unitary of an unmeasured entry function over its qubits in
    allocation order: its qallocs become parameters and its frees go."""
    fn = m.entry_fn
    params = tuple(op.results[0] for op in fn.ops if op.kind == "qalloc")
    ops = [op for op in fn.ops if op.kind not in ("qalloc", "qfree", "qfreez")]
    return module_unitary(QCircFn(fn.name, ops, params, fn.next_id))


@pytest.mark.parametrize("kind, nctrl", ONE_GATE,
                         ids=[f"{k.name}-c{c}" for k, c in ONE_GATE])
def test_qasm_round_trip_keeps_each_gates_unitary(kind, nctrl):
    m = one_gate_module(one_gate(kind, nctrl))
    qasm = emit_qasm3(m, allow_multi_control=True)
    assert np.allclose(allocated_unitary(read_qasm3(qasm)),
                       allocated_unitary(m), atol=1e-12), qasm


def test_qasm_round_trip_covers_every_gate_name():
    names = set()
    for kind, nctrl in ONE_GATE:
        qasm = emit_qasm3(one_gate_module(one_gate(kind, nctrl)),
                          allow_multi_control=True)
        names.add(qasm.splitlines()[-1].split(" q[")[0].split("(")[0])
    assert {"cx", "cy", "cz", "ch", "cswap", "cp", "ctrl"} <= names


QIR_CASES = [(k, c) for k in GateKind for c in range(2)] + [(GateKind.X, 2)]


@pytest.mark.parametrize("kind, nctrl", QIR_CASES,
                         ids=[f"{k.name}-c{c}" for k, c in QIR_CASES])
def test_qir_legalization_is_exact(kind, nctrl):
    gate = one_gate(kind, nctrl)
    n = len(gate.controls) + len(gate.targets)
    op = QOp("gate", tuple(range(n)), tuple(range(n, 2 * n)), gate=kind,
             param=gate.param, num_controls=nctrl)
    assert np.allclose(unitary_of(_legalize_for_qir(op), n),
                       unitary_of([gate], n), atol=1e-12)


def emitted_qir() -> dict[str, str]:
    """Every QIR module the compiler emits for the benchmarks (at -O0/-O1,
    with and without decomposition and qubit reuse, where the backend
    accepts the program), and one single-gate module for each case of
    ``QIR_CASES``."""
    out = {}
    for name in BENCHMARKS:
        path = BENCH / f"{name}.qw"
        src = path.read_text()
        for opt_level in (0, 1):
            for decompose in (False, True):
                for reuse in (False, True):
                    opts = Options(opt_level=opt_level, decompose=decompose,
                                   reuse_qubits=reuse)
                    try:
                        qir = compile_source(src, str(path), opts, "qir")
                    except CompileError:  # branches, or ctrl @ undecomposed
                        continue
                    out[f"{name}-O{opt_level}-d{int(decompose)}"
                        f"-r{int(reuse)}"] = qir
    for kind, nctrl in QIR_CASES:
        out[f"{kind.name}-c{nctrl}"] = emit_qir_base(
            one_gate_module(one_gate(kind, nctrl)))
    return out


@pytest.mark.skipif(shutil.which("llvm-as") is None,
                    reason="llvm-as (LLVM) is not installed")
def test_emitted_qir_parses_with_llvm_as():
    modules = emitted_qir()
    assert len(modules) >= len(QIR_CASES) + 6 * 4
    for name, text in modules.items():
        done = subprocess.run(["llvm-as", "-o", "/dev/null", "-"],
                              input=text, capture_output=True, text=True)
        assert done.returncode == 0, f"{name}: {done.stderr}"
