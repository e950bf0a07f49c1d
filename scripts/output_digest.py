#!/usr/bin/env python3
"""Print a sha256 of every compiler output, one per program and emit target
and one in total, so a change meant to keep output byte-identical can be
checked by comparing the totals printed before and after it, and a change
meant to alter one target's output can show that only that target moved.

The programs are ``benchmarks/*.qw``, ``tests/goldens/*.qw`` and the
compile_scale programs of ``perfbench/workloads.py`` at seeds 1-3 (with
their dimension bindings). Each is compiled to every ``--emit`` target
(ast, qwerty-ir, qcircuit-ir, qasm, qir) at -O0 and -O1, with and without
multi-control decomposition; a line's hash covers those four outputs of one
program and target, and is labelled ``program target``. An output that ends
in a diagnostic is hashed as the diagnostic's text.

``--check`` compares the lines with ``tests/goldens/output_digest.txt``,
which ``scripts/regen_goldens.py`` rewrites, prints each line that
differs, and exits 1 if any does.

    python3 scripts/output_digest.py
    python3 scripts/output_digest.py --check
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import workload  # noqa: E402
from qbc.diagnostics import CompileError  # noqa: E402
from qbc.pipeline import Options, compile_source  # noqa: E402

EMITS = ("ast", "qwerty-ir", "qcircuit-ir", "qasm", "qir")
SEEDS = (1, 2, 3)
GOLDEN = ROOT / "tests" / "goldens" / "output_digest.txt"


def programs():
    """(label, file name, source, dimension bindings) of every program."""
    for d in ("benchmarks", "tests/goldens"):
        for path in sorted((ROOT / d).glob("*.qw")):
            yield f"{d}/{path.name}", f"{d}/{path.name}", path.read_text(), {}
    for seed in SEEDS:
        for p in workload("compile_scale", ROOT, seed):
            yield f"compile_scale/seed{seed}/{p.name}", p.file, p.source, p.dims


def output(source: str, file: str, opts: Options, emit: str) -> str:
    try:
        return compile_source(source, file, opts, emit)
    except CompileError as e:
        return str(e)


def digest() -> list[str]:
    """``hash  program target`` of every program and emit target, then
    ``hash  total``."""
    lines, total = [], hashlib.sha256()
    for label, file, source, dims in programs():
        for emit in EMITS:
            h = hashlib.sha256()
            for opt_level in (0, 1):
                for decompose in (False, True):
                    opts = Options(opt_level=opt_level, decompose=decompose,
                                   dims=dict(dims))
                    h.update(output(source, file, opts, emit).encode("utf-8"))
                    h.update(b"\0")
            lines.append(f"{h.hexdigest()}  {label} {emit}")
            total.update(h.digest())
    return lines + [f"{total.hexdigest()}  total"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help=f"compare with {GOLDEN.relative_to(ROOT)}")
    args = ap.parse_args(argv)
    lines = digest()
    if not args.check:
        print("\n".join(lines))
        return 0
    golden = GOLDEN.read_text().splitlines()
    differ = [f"{label}: {want} -> {got}" for label, want, got in
              _differences(golden, lines)]
    for line in differ:
        print(line)
    print(f"output digest: {len(differ)} line(s) differ" if differ
          else "output digest: ok")
    return 1 if differ else 0


def _differences(golden: list[str], lines: list[str]):
    """(label, golden hash, hash now) of each label whose hashes differ,
    ``missing`` standing for a hash that one side lacks."""
    want = dict(reversed(line.split("  ", 1)) for line in golden)
    got = dict(reversed(line.split("  ", 1)) for line in lines)
    for label in [*want, *(k for k in got if k not in want)]:
        if want.get(label) != got.get(label):
            yield label, want.get(label, "missing"), got.get(label, "missing")


if __name__ == "__main__":
    raise SystemExit(main())
