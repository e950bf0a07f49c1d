"""Per-layer spans for the traced run, recorded from outside the compiler.

`install` swaps the functions bound in `qbc.pipeline`'s namespace, the
executors in `qbc.run` and the `StateVector` methods for wrappers, and
returns a function that puts the originals back; no file of the compiler
changes. Each span adds its self time (its duration minus that of the spans
it encloses) to its layer as it closes. Spans are not kept one by one,
because a paper_run pass opens about 600 000 simulator gate spans.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Layer name bound in qbc.pipeline -> the metric its self time goes to.
PIPELINE_LAYERS = {
    "parse": "parser.s",
    "expand": "expand.s",
    "typecheck": "typecheck.s",
    "canonicalize_ast": "canon_ast.s",
    "lower_to_ir": "lower_ast.s",
    "verify": "qwir.verify_s",
    "lift_lambdas": "qwir_passes.lift_s",
    "canonicalize_ir": "qwir_passes.canonicalize_s",
    "inline": "qwir_passes.inline_s",
    "generate_specializations": "qwir_passes.specialize_s",
    "prune_unreachable": "qwir_passes.specialize_s",
    "lower_module": "lower_gates.s",
    "peephole": "peephole.s",
    "decompose_multicontrol": "decompose.s",
    "verify_circuit": "qcirc.verify_s",
    "emit_qasm3": "backends.qasm_s",
    "emit_qir_base": "backends.qir_s",
}
RUN_LAYERS = {"simulate": "run.simulate_s", "distribution": "run.distribution_s"}
GATE_LAYER = "simulator.gate_s"
# The benchmark opens one span of this layer around each operation, so it
# holds the pipeline's own glue and the hooks' counting.
ROOT_LAYER = "other.s"

SECONDS = sorted({*PIPELINE_LAYERS.values(), *RUN_LAYERS.values(),
                  GATE_LAYER, ROOT_LAYER})
COUNTS = [
    "typecheck.calls", "qwir_passes.calls_before_inline",
    "qwir_passes.calls_after_inline", "qwir.ops", "lower_gates.gates_out",
    "peephole.gates_in", "peephole.gates_out", "decompose.gates_out",
    "qcirc.verify_calls", "backends.bytes_out", "simulator.gate_calls",
    "simulator.amplitudes_touched", "simulator.measure_calls",
    "simulator.branch_calls",
]
MAXIMA = ["simulator.peak_live"]


def _gates(m) -> int:
    return sum(fn.count_gates() for fn in m.functions.values())


def _qwir_ops(m) -> int:
    def walk(block) -> int:
        return sum(1 + sum(walk(r) for r in op.regions) for op in block.ops)
    return sum(walk(fn.block) for fn in m.functions.values())


class Tracer:
    """Per-layer self times, counts and maxima of the current pass."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack = [0.0]  # time covered by child spans, per open span

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()
        self.maxima.clear()
        self._stack[:] = [0.0]

    def snapshot(self) -> dict[str, float]:
        """This pass's values; `trace.pass_s` sums the outermost spans."""
        out: dict[str, float] = {k: self.seconds.get(k, 0.0) for k in SECONDS}
        out.update({k: self.counts.get(k, 0) for k in COUNTS})
        out.update({k: self.maxima.get(k, 0) for k in MAXIMA})
        out["trace.pass_s"] = self._stack[0]
        return out

    def wrap(self, layer: str, fn, before=None, after=None):
        """`fn` inside a span of `layer`.

        `before(*args)` returns a token that `after(token, result)` gets;
        both run outside the span, so their time is the enclosing span's.
        """
        stack, seconds = self._stack, self.seconds

        def wrapper(*args, **kwargs):
            token = before(*args) if before else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                seconds[layer] += dur - stack.pop()
                stack[-1] += dur
            if after:
                after(token, result)
            return result

        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def high(self, name: str, n: int) -> None:
        if n > self.maxima[name]:
            self.maxima[name] = n


def merge(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    """Two snapshots as one: maxima take the larger value, the rest add."""
    return {k: max(a.get(k, 0), v) if k in MAXIMA else a.get(k, 0) + v
            for k, v in b.items()}


def install(t: Tracer):
    """Wrap the layers for `t`; returns a function that unwraps them."""
    from qbc import pipeline, run
    from qbc.qwir_passes import count_calls
    from qbc.simulator import StateVector

    saved = [(pipeline, n, getattr(pipeline, n)) for n in PIPELINE_LAYERS]
    saved += [(run, n, getattr(run, n)) for n in RUN_LAYERS]
    saved += [(StateVector, n, StateVector.__dict__[n])
              for n in ("gate", "measure", "branch", "alloc")]

    def gates_after(metric):
        return lambda _token, qc: t.count(metric, _gates(qc))

    def calls(metric):
        def hook(m):
            t.count(metric, sum(count_calls(m)))
            return m
        return hook

    def bytes_out(_token, text):
        t.count("backends.bytes_out", len(text))

    hooks = {
        "typecheck": (lambda *a: t.count("typecheck.calls"), None),
        "inline": (calls("qwir_passes.calls_before_inline"),
                   lambda m, _res: calls("qwir_passes.calls_after_inline")(m)),
        "lower_module": (lambda m: t.count("qwir.ops", _qwir_ops(m)),
                         gates_after("lower_gates.gates_out")),
        "peephole": (lambda qc: t.count("peephole.gates_in", _gates(qc)),
                     gates_after("peephole.gates_out")),
        "decompose_multicontrol": (None, gates_after("decompose.gates_out")),
        "verify_circuit": (lambda *a: t.count("qcirc.verify_calls"), None),
        "emit_qasm3": (None, bytes_out),
        "emit_qir_base": (None, bytes_out),
    }
    for name, layer in PIPELINE_LAYERS.items():
        before, after = hooks.get(name, (None, None))
        setattr(pipeline, name, t.wrap(layer, getattr(pipeline, name),
                                       before, after))
    for name, layer in RUN_LAYERS.items():
        setattr(run, name, t.wrap(layer, getattr(run, name)))

    gate = t.wrap(GATE_LAYER, StateVector.gate)
    measure, branch, alloc = (StateVector.measure, StateVector.branch,
                              StateVector.alloc)

    def traced_gate(sv, *args, **kwargs):
        n = sv.n
        t.count("simulator.gate_calls")
        t.count("simulator.amplitudes_touched", 1 << n)
        t.high("simulator.peak_live", n)
        return gate(sv, *args, **kwargs)

    def traced_measure(sv, key):
        t.count("simulator.measure_calls")
        return measure(sv, key)

    def traced_branch(sv, key):
        t.count("simulator.branch_calls")
        return branch(sv, key)

    def traced_alloc(sv, key):
        alloc(sv, key)
        t.high("simulator.peak_live", sv.n)

    StateVector.gate = traced_gate
    StateVector.measure = traced_measure
    StateVector.branch = traced_branch
    StateVector.alloc = traced_alloc

    def uninstall() -> None:
        for owner, name, value in saved:
            setattr(owner, name, value)

    return uninstall
