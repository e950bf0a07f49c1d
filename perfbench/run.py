"""qbc benchmark: compile time, run time and circuit quality.

    python3 perfbench/run.py --workload paper_run --seed 1 --seconds 30 --trace 0

Run from the repository root; the compiler is imported from `src/`. One run
measures one workload (see workloads.py) in one process, checks every output
against a reference that does not come from the compiler, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json; with `--trace 1` they are the per-layer ones, from a run
whose second half wraps the compiler's layers in spans (spans.py). The line
before it is a JSON report with quartiles, sample counts and per-program
values.

A run interleaves two kinds of timed pass (see `Bench.measure`): compile
passes run `compile_source` to QASM over the workload's programs, and run
passes execute each program as `qbc run` does: `compile_to_circuit`, then
the workload's executor. `compile_s` and `run_s` are the median pass times
scaled to a reference host speed. On a shared host the same code runs at
speeds up to 2x apart that change every few seconds, so raw medians of
identical runs spread by 20-50%. A timer interrupts the run every 50 ms to
time two fixed loops, also in the middle of a long simulate call: one of
pure-Python integer and dict work, like the compiler's, and one of numpy
calls on a 128-amplitude vector, like the simulator's. Each step's time,
less the loops', is scaled by its kind's loop's nominal time over its mean
time during the step (`HostClock`): compile steps by the Python loop, run
steps by the numpy loop. The report line keeps the raw times too.
"""

from __future__ import annotations

import os

# One BLAS thread: on a two-core host OpenBLAS's second thread spins on the
# core that the rest of the machine contends for, which doubles the CPU used
# by simulator runs without shortening them and makes their times jumpy.
# Set before numpy loads; the set-up interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import check
import selftest
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The host-speed sampler runs each calibration loop for about 1 ms every
# SAMPLE_PERIOD seconds, 4% of the measured time, which it takes out of the
# step times. A step is scaled by the samples within SAMPLE_WINDOW seconds
# of it, so a short step still sees several.
SAMPLE_PERIOD = 0.05
SAMPLE_WINDOW = 0.25
# Share of the measured time spent in compile passes; executions get the
# rest. A paper_run execution pass takes 15-25 s, so it keeps most.
COMPILE_SHARE = {"paper_run": 0.1, "compile_scale": 0.6}
MIN_COMPILE_PASSES = 3
SETUP_SPAWNS = 11
# The set-up spawn's reference: a fresh interpreter that imports numpy, and
# its time on an unloaded core (it sets the scale of setup_s).
SETUP_REFERENCE = "import numpy"
SETUP_REFERENCE_NOMINAL_S = 0.15
# Shots of the untimed replay that checks that one seed gives one histogram.
REPLAY_SHOTS = 64
COUNT_METRICS = ("gates", "t_count", "cx_count", "depth", "qubits",
                 "qubits_reused")
END_TO_END = {"setup_s": "s", "compile_s": "s", "run_s": "s",
              **{k: "count" for k in COUNT_METRICS}, "peak_rss_mb": "MB"}
PER_LAYER = {**{k: "s" for k in spans.SECONDS},
             **{k: "count" for k in spans.COUNTS},
             **{k: "qubits" for k in spans.MAXIMA},
             "peephole.removed_ratio": "ratio", "trace.pass_s": "s",
             "trace.untraced_pass_s": "s", "trace.overhead_s": "s"}

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from qbc import cli, pipeline
with open(sys.argv[2], encoding="utf-8") as f:
    pipeline.compile_source(f.read(), "bell.qw", pipeline.Options(), "qasm")
"""


_TABLE = dict.fromkeys(range(997), 0)
_INDEX = np.arange(128)
_VECTOR = np.ones(128, dtype=complex)


def python_loop(loops: int) -> float:
    """Seconds for `loops` iterations of fixed integer and dict work.

    It allocates no containers, so the compiler's garbage cannot make the
    collector run inside it.
    """
    x, table = 1, _TABLE
    t0 = perf_counter()
    for _ in range(loops):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x % 997] += 1
    return perf_counter() - t0


def numpy_loop(loops: int) -> float:
    """Seconds for `loops` masked gathers and scatters on a small vector,
    the kind of numpy call a shot replay spends its time in."""
    idx, vec = _INDEX, _VECTOR
    t0 = perf_counter()
    for _ in range(loops):
        rows = idx[(idx & 4) == 0]
        vec[rows] = vec[rows].copy() * 1.0
    return perf_counter() - t0


# Step kind -> (calibration loop, iterations per sample, seconds per
# iteration on an unloaded 2.0 GHz x86 core). The nominal times only set
# the scale of the reported times, which compare like with like.
CALIBRATIONS = {
    "compile": (python_loop, 1500, 3e-7),
    "run": (numpy_loop, 150, 4.5e-6),
}


@dataclass
class Step:
    """One timed library call: when it ran, and its seconds without the
    sampler's own time."""
    start: float
    end: float
    seconds: float


class HostClock:
    """Times steps and samples the host's speed all through them.

    While it is entered, a one-shot SIGALRM timer re-armed every
    SAMPLE_PERIOD seconds runs the calibration loops. Python runs the
    handler in the main thread between bytecodes, so a sample lands inside
    whatever step is running, also inside one long simulate call. The
    handler's time is taken out of every step it interrupts (`paused`).
    """

    def __init__(self):
        # (taken at, {step kind: seconds of its loop})
        self.samples: list[tuple[float, dict[str, float]]] = []
        self.paused = 0.0
        self._running = False
        self._previous = None

    @staticmethod
    def _loops() -> dict[str, float]:
        return {kind: loop(n) for kind, (loop, n, _) in CALIBRATIONS.items()}

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        loops = self._loops()
        t1 = perf_counter()
        self.samples.append((t1, loops))
        self.paused += t1 - t0
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD)

    def __enter__(self) -> "HostClock":
        self.samples.append((perf_counter(), self._loops()))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        # Stop re-arming first: a handler already due may still run once.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """`fn()`'s result and the Step it took."""
        t0, paused = perf_counter(), self.paused
        result = fn()
        t1 = perf_counter()
        return result, Step(t0, t1, t1 - t0 - (self.paused - paused))

    def scaled(self, step: Step, kind: str) -> float:
        """`step`'s seconds at the reference speed: scaled by the nominal
        time of `kind`'s loop over its mean time in the samples taken
        during the step or within SAMPLE_WINDOW of it (the nearest one if
        none is; entering the clock takes the first)."""
        lo, hi = step.start - SAMPLE_WINDOW, step.end + SAMPLE_WINDOW
        near = [s for t, s in self.samples if lo <= t <= hi]
        if not near:
            mid = (step.start + step.end) / 2
            near = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        _, n, per_iteration = CALIBRATIONS[kind]
        mean = sum(s[kind] for s in near) / len(near)
        return step.seconds * n * per_iteration / mean


def _spawn_seconds(*args: str) -> float:
    # No timeout: waiting with one polls every 50 ms, which would quantise
    # the measured time.
    t0 = perf_counter()
    subprocess.run([sys.executable, *args], check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import qbc and compile Bell,
    and of the reference interpreters spawned after each.

    The calibration loops do not track a spawn's time (file reads and
    loading shared objects), so set-up is scaled by a reference spawn
    instead: one that imports numpy, which no change to qbc can speed up.
    """
    setup, ref = [], []
    for _ in range(SETUP_SPAWNS):
        setup.append(_spawn_seconds("-c", SETUP_CODE, str(SRC),
                                    str(ROOT / "benchmarks" / "bell.qw")))
        ref.append(_spawn_seconds("-c", SETUP_REFERENCE))
    return setup, ref


def summary(values: list[float]) -> dict:
    """Fastest, median, quartiles, sample count, and the highest percentile
    that has at least ten samples beyond it (left out when none has)."""
    out = {"n": len(values), "min": min(values),
           "median": statistics.median(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - p / 100) >= 10:
            rank = math.ceil(p / 100 * len(values)) - 1
            out[f"p{p:g}"] = ordered[rank]
            break
    return out


class Bench:
    """One workload's programs, operations and checks in this process."""

    def __init__(self, workload: str, seed: int):
        from qbc import pipeline, run
        self.pipeline, self.run = pipeline, run
        self.workload, self.seed = workload, seed
        self.programs = workloads.workload(workload, ROOT, seed)
        self.executor = workloads.EXECUTOR[workload]
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.qasm: dict[str, str] = {}
        self.outputs: dict[str, dict] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self.times: dict[str, dict[str, list[float]]] = {
            p.name: {"compile": [], "run": []} for p in self.programs}

    def _options(self, p, **kw):
        return self.pipeline.Options(dims=dict(p.dims), **kw)

    def attempt(self, what: str, fn):
        """Count one operation; a raise or a returned mismatch fails it."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as e:  # a failed operation is data, not a crash
            problem = f"raised {type(e).__name__}: {e}"
        if problem:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {problem}")
                print(f"FAIL {what}: {problem}", file=sys.stderr)

    # -- operations: each returns the Step its library calls took ---------

    def compile_op(self, p, timer, clock: HostClock) -> Step:
        step = Step(0.0, 0.0, 0.0)  # what a call that raised counts

        def emit():
            return self.pipeline.compile_source(p.source, p.file,
                                                self._options(p), "qasm")

        def op():
            nonlocal step
            text, step = clock.time(timer(emit))
            if text != self.qasm[p.name]:
                return "QASM differs from the first compile"

        self.attempt(f"compile {p.name}", op)
        self.times[p.name]["compile"].append(step.seconds)
        return step

    def run_op(self, p, timer, clock: HostClock) -> Step:
        step = Step(0.0, 0.0, 0.0)  # what a call that raised counts

        def execute():
            qc = self.pipeline.compile_to_circuit(p.source, p.file,
                                                  self._options(p))
            if self.executor == "sample":
                return self.run.simulate(qc, shots=workloads.SHOTS,
                                         seed=self.seed)
            return self.run.distribution(qc)

        def op():
            nonlocal step
            out, step = clock.time(timer(execute))
            if self.executor == "sample":
                problem = check.sampled_mismatch(out, p.ref, workloads.SHOTS)
            else:
                problem = check.exact_mismatch(out, p.ref)
            first = self.outputs.setdefault(p.name, out)
            return problem or (None if out == first else
                               "output differs from the first execution")

        self.attempt(f"run {p.name}", op)
        self.times[p.name]["run"].append(step.seconds)
        return step

    # -- untimed checks and circuit quality --------------------------------

    def prepare(self) -> None:
        """Compile each program, and again with qubit reuse, untimed.

        Every timed compile is then checked against this QASM.
        """
        for p in self.programs:
            def quality(p=p):
                text = self.pipeline.compile_source(
                    p.source, p.file, self._options(p), "qasm")
                reused = self.pipeline.compile_source(
                    p.source, p.file, self._options(p, reuse_qubits=True),
                    "qasm")
                self.qasm[p.name] = text
                counts = check.qasm_counts(text)
                counts["qubits_reused"] = check.qasm_counts(reused)["qubits"]
                self.counts[p.name] = counts
            self.attempt(f"prepare {p.name}", quality)

    def replay(self) -> None:
        """Same seed, same histogram: two short untimed shot runs agree."""
        if self.executor != "sample":
            return
        for p in self.programs:
            def op(p=p):
                qc = self.pipeline.compile_to_circuit(p.source, p.file,
                                                      self._options(p))
                a = self.run.simulate(qc, shots=REPLAY_SHOTS, seed=self.seed)
                b = self.run.simulate(qc, shots=REPLAY_SHOTS, seed=self.seed)
                if a != b:
                    return "one seed gave two histograms"
            self.attempt(f"replay {p.name}", op)

    # -- timed phases -------------------------------------------------------

    def measure(self, budget: float, tracer=None) -> dict:
        """Interleave compile passes with execution ops for `budget` seconds.

        Compile passes are slotted between single program executions so
        that compile time stays near COMPILE_SHARE of the time spent; both
        kinds of pass then sample the whole window, not one end of it. A run
        pass is one execution of every program in turn. The loop stops
        before a step that is expected to overrun `budget`, once there are
        MIN_COMPILE_PASSES compile passes and the minimum of run passes.
        Pass times are kept raw and scaled (see HostClock).
        """
        share = COMPILE_SHARE[self.workload]
        min_runs = 1 if self.executor == "sample" else 2
        timer = (lambda f: tracer.wrap(spans.ROOT_LAYER, f)) if tracer \
            else (lambda f: f)
        passes: dict[str, list[list[Step]]] = {"compile": [], "run": []}
        snaps: dict[str, list[dict]] = {"compile": [], "run": []}
        spent = {"compile": 0.0, "run": 0.0}
        last_op: dict[str, float] = {}
        pending: list = []  # programs still to execute in this run pass
        run_steps: list[Step] = []
        run_snap: dict = {}
        with HostClock() as clock:
            start = perf_counter()
            while True:
                compile_next = \
                    spent["compile"] <= share * sum(spent.values())
                if compile_next:
                    expected = sum(s.seconds for s in passes["compile"][-1]) \
                        if passes["compile"] else 0.0
                else:
                    pending = pending or list(self.programs)
                    expected = last_op.get(pending[0].name, 0.0)
                if len(passes["compile"]) >= MIN_COMPILE_PASSES and \
                        len(passes["run"]) >= min_runs and \
                        perf_counter() - start + expected > budget:
                    break
                if tracer:
                    tracer.reset()
                if compile_next:
                    steps = [self.compile_op(p, timer, clock)
                             for p in self.programs]
                    if tracer:
                        snaps["compile"].append(tracer.snapshot())
                    passes["compile"].append(steps)
                else:
                    p = pending.pop(0)
                    steps = [self.run_op(p, timer, clock)]
                    last_op[p.name] = steps[0].seconds
                    if tracer:
                        run_snap = spans.merge(run_snap, tracer.snapshot())
                    run_steps += steps
                    if not pending:
                        passes["run"].append(run_steps)
                        snaps["run"].append(run_snap)
                        run_steps, run_snap = [], {}
                spent["compile" if compile_next else "run"] += \
                    sum(s.seconds for s in steps)
        out: dict = {"spans": snaps}
        for kind, kind_passes in passes.items():
            out[kind] = [sum(s.seconds for s in ps) for ps in kind_passes]
            out[f"{kind}_ref"] = [sum(clock.scaled(s, kind) for s in ps)
                                  for ps in kind_passes]
        return out


def end_to_end(bench: Bench, m: dict, setup: list[float],
               setup_ref: list[float]) -> dict:
    """Pass times are medians of scaled times; setup_s is the median set-up
    time scaled by the reference spawn's nominal over median time; counts
    are summed over the workload's programs."""
    return {
        "setup_s": statistics.median(setup) * SETUP_REFERENCE_NOMINAL_S
        / statistics.median(setup_ref),
        "compile_s": statistics.median(m["compile_ref"]),
        "run_s": statistics.median(m["run_ref"]),
        **{k: sum(c[k] for c in bench.counts.values())
           for k in COUNT_METRICS},
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _median_pass(snaps: list[dict]) -> dict:
    return sorted(snaps, key=lambda s: s["trace.pass_s"])[(len(snaps) - 1) // 2]


def _scaled_pass(m: dict) -> float:
    return statistics.median(m["compile_ref"]) + statistics.median(m["run_ref"])


def per_layer(plain: dict, traced: dict) -> dict:
    """Each layer's value for one workload pass (a compile pass and a run
    pass): its value in the median traced compile pass plus that in the
    median traced run pass. Layer times are raw, so the layers' self times
    add up to `trace.pass_s`; the untraced pass and the tracing overhead
    are compared in scaled seconds, since the two halves of the run may
    meet the host in different modes."""
    chosen = [_median_pass(snaps) for snaps in traced["spans"].values()]
    values = {name: sum(s[name] for s in chosen)
              for name in [*spans.SECONDS, *spans.COUNTS, "trace.pass_s"]}
    for name in spans.MAXIMA:
        values[name] = max(s[name] for s in chosen)
    gin = values["peephole.gates_in"]
    values["peephole.removed_ratio"] = \
        (gin - values["peephole.gates_out"]) / gin if gin else 0.0
    values["trace.untraced_pass_s"] = _scaled_pass(plain)
    values["trace.overhead_s"] = _scaled_pass(traced) - _scaled_pass(plain)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(COMPILE_SHARE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qbc" / "__init__.py").is_file():
        print(f"perfbench: no compiler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qbc
    if Path(qbc.__file__).resolve().parent != SRC / "qbc":
        print(f"perfbench: imported qbc from {qbc.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    selftest.run_all(spec, END_TO_END, PER_LAYER)

    bench = Bench(args.workload, args.seed)
    bench.prepare()
    report = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        plain = bench.measure(args.seconds / 2)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            traced = bench.measure(args.seconds / 2, tracer)
        finally:
            uninstall()
        metrics, units = per_layer(plain, traced), PER_LAYER
    else:
        setup, setup_ref = setup_seconds()
        report["setup_s"] = summary(setup)
        report["setup_ref_s"] = summary(setup_ref)
        plain = bench.measure(args.seconds)
        metrics = end_to_end(bench, plain, setup, setup_ref)
        units = END_TO_END
    bench.replay()

    report.update({
        **{f"{k}_s": summary(plain[k])
           for k in ("compile", "run", "compile_ref", "run_ref")},
        "fail_rate": bench.failed / bench.attempted,
        "failures": bench.failures,
        "programs": {
            p.name: {
                **bench.counts.get(p.name, {}),
                **{f"{k}_s": statistics.median(v)
                   for k, v in bench.times[p.name].items() if v},
            } for p in bench.programs},
    })
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
