#!/usr/bin/env python3
"""Print a sha256 of every compiler output, one per program and one in total,
so a change meant to keep output byte-identical can be checked by comparing
the totals printed before and after it.

The programs are ``benchmarks/*.qw``, ``tests/goldens/*.qw`` and the
compile_scale programs of ``perfbench/workloads.py`` at seeds 1-3 (with
their dimension bindings). Each is compiled to every ``--emit`` target
(ast, qwerty-ir, qcircuit-ir, qasm, qir) at -O0 and -O1, with and without
multi-control decomposition. An output that ends in a diagnostic is hashed
as the diagnostic's text.

    python3 scripts/output_digest.py
"""

from __future__ import annotations

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


def main() -> int:
    total = hashlib.sha256()
    for label, file, source, dims in programs():
        h = hashlib.sha256()
        for opt_level in (0, 1):
            for decompose in (False, True):
                opts = Options(opt_level=opt_level, decompose=decompose,
                               dims=dict(dims))
                for emit in EMITS:
                    h.update(output(source, file, opts, emit).encode("utf-8"))
                    h.update(b"\0")
        print(f"{h.hexdigest()}  {label}")
        total.update(h.digest())
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
