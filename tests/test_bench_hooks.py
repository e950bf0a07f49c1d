"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps compiler
functions by name; each name it looks up must still exist and be the one
that does the work, and uninstalling must put the originals back."""

import importlib.util
import pathlib

from qbc import pipeline, run
from qbc.simulator import StateVector

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
STATE_METHODS = ("gate", "measure", "branch", "alloc")


def _spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_count_and_uninstall():
    spans = _spans()
    originals = {name: getattr(pipeline, name) for name in spans.PIPELINE_LAYERS}
    originals.update({name: getattr(run, name) for name in spans.RUN_LAYERS})
    methods = {name: StateVector.__dict__[name] for name in STATE_METHODS}

    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        path = ROOT / "benchmarks" / "bell.qw"
        qc = pipeline.compile_to_circuit(path.read_text(), str(path),
                                         pipeline.Options())
        run.simulate(qc, shots=16, seed=1)
        snap = tracer.snapshot()
    finally:
        uninstall()

    for metric in ("typecheck.calls", "lower_gates.gates_out",
                   "simulator.gate_calls"):
        assert snap[metric] > 0, metric
    for name in spans.PIPELINE_LAYERS:
        assert getattr(pipeline, name) is originals[name], name
    for name in spans.RUN_LAYERS:
        assert getattr(run, name) is originals[name], name
    for name in STATE_METHODS:
        assert StateVector.__dict__[name] is methods[name], name
