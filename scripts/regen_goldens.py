#!/usr/bin/env python3
"""Regenerate, or with --check verify, the golden basis IR, QASM and QIR
outputs of the benchmark programs and of each ``tests/goldens/*.qw``:
``forms.qw`` reaches every exact gate form of ``qbc.qcirc.exact_form``
that the backends and multi-control decomposition use, and
``composite.qw`` adjoints and predicates a kernel and a tensor. It also
pins the results of the front-end diagnostics corpus
(``front_diagnostics.txt``, whose sources are kept as they are).
Rewriting also rewrites ``output_digest.txt``, which
``scripts/output_digest.py --check`` reads.

Each golden is verified before freezing: the QASM text is re-ingested and
its exact output distribution compared against the directly compiled
circuit. Rewriting prints, for each file it writes, whether its bytes
changed; for a changed QASM golden it also prints the old and new declared
width and depth, so a layout change shows in review, and for a changed
basis IR golden whether the new text equals the old once each ``%`` value
is renumbered by first appearance, so a change that only moves value
numbers shows as such. ``--check`` compiles and verifies the same way but
writes nothing; it compares every output byte for byte with
``tests/goldens/`` and exits 1 naming every mismatch.

    python3 scripts/regen_goldens.py           # rewrite tests/goldens/
    python3 scripts/regen_goldens.py --check   # verify them
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts")]

import output_digest  # noqa: E402
from oracles import returning_all_bits  # noqa: E402
from qasm_reader import read_qasm3  # noqa: E402
from qbc.backends import allocate  # noqa: E402
from qbc.diagnostics import CompileError  # noqa: E402
from qbc.pipeline import (  # noqa: E402
    Options, compile_source, compile_to_circuit, front,
)
from qbc.run import distribution  # noqa: E402

BENCHMARKS = ["bell", "bv", "dj", "grover", "simon", "period", "teleport"]
GOLDEN_DIR = ROOT / "tests" / "goldens"
# Golden name -> the program it compiles.
SOURCES = {name: ROOT / "benchmarks" / f"{name}.qw" for name in BENCHMARKS}
SOURCES |= {path.stem: path for path in sorted(GOLDEN_DIR.glob("*.qw"))}
FRONT_CORPUS = "front_diagnostics.txt"  # in GOLDEN_DIR


class GoldenError(Exception):
    """The re-ingested QASM's distribution differs from the circuit's."""


def goldens(name: str) -> dict[str, str | None]:
    """Golden file name -> its text, or None where the backend cannot
    express the program (teleport's branches have no QIR). ``.qwir`` holds
    the inlined basis IR (``--emit qwerty-ir``), ``.qasm`` and ``.ll`` the
    backends' output.

    Raises GoldenError if the re-ingested QASM's distribution differs.
    """
    src_path = SOURCES[name]
    source = src_path.read_text()
    opts = Options()
    qwir = compile_source(source, str(src_path), opts, "qwerty-ir")
    qasm = compile_source(source, str(src_path), opts, "qasm")
    circuit = compile_to_circuit(source, str(src_path), opts)
    want = distribution(returning_all_bits(circuit))
    got = distribution(read_qasm3(qasm))
    if not _close(want, got):
        raise GoldenError(f"{name}: re-ingested distribution differs")
    try:
        qir = compile_source(source, str(src_path), opts, "qir")
    except CompileError:  # the QIR backend rejected the program
        qir = None
    return {f"{name}.qwir": qwir, f"{name}.qasm": qasm, f"{name}.ll": qir}


def front_result(source: str) -> str:
    """What the front end makes of ``source``: ``ok``, or its diagnostic
    as ``line:col: message``."""
    try:
        front(source, "corpus.qw", Options())
    except CompileError as e:
        return e.message if e.pos is None else f"{e.pos}: {e.message}"
    return "ok"


def front_corpus() -> list[tuple[str, str | None, str]]:
    """Each line of the front-end corpus as (line, its source or None for a
    comment, its pinned result)."""
    out = []
    for line in (GOLDEN_DIR / FRONT_CORPUS).read_text("utf-8").splitlines():
        if line.startswith("#"):
            out.append((line, None, ""))
        else:
            source, result = line.split("\t", 1)
            out.append((line, json.loads(source), result))
    return out


def front_mismatches() -> list[str]:
    """Every source of the front-end corpus whose result differs from the
    pinned one."""
    return [f"{FRONT_CORPUS}: {source!r} gave {front_result(source)!r}, "
            f"pinned {result!r}"
            for _, source, result in front_corpus()
            if source is not None and front_result(source) != result]


def check() -> list[str]:
    """Every way the goldens differ from the compiler's output."""
    problems = front_mismatches()
    for name in SOURCES:
        try:
            files = goldens(name)
        except GoldenError as e:
            problems.append(str(e))
            continue
        for fname, text in files.items():
            path = GOLDEN_DIR / fname
            if text is None:
                if path.exists():
                    problems.append(
                        f"{fname}: golden exists but no output is emitted")
            elif not path.exists():
                problems.append(f"{fname}: golden missing")
            elif path.read_bytes() != text.encode("utf-8"):
                problems.append(f"{fname}: compiler output differs from the golden")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with tests/goldens/ and write nothing")
    args = ap.parse_args(argv)
    if args.check:
        problems = check()
        for problem in problems:
            print(f"golden mismatch: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("goldens: ok")
        return 0
    GOLDEN_DIR.mkdir(exist_ok=True)
    files = {}
    for name in SOURCES:
        for fname, text in goldens(name).items():
            if text is None:
                print(f"{name}: no {fname}")
            else:
                files[fname] = text
    files[FRONT_CORPUS] = "".join(
        f"{line}\n" if source is None else
        f"{json.dumps(source, ensure_ascii=False)}\t{front_result(source)}\n"
        for line, source, _ in front_corpus())
    files[output_digest.GOLDEN.name] = "".join(
        f"{line}\n" for line in output_digest.digest())
    for fname, text in files.items():
        path = GOLDEN_DIR / fname
        data = text.encode("utf-8")
        old = path.read_bytes() if path.exists() else None
        if old == data:
            status = "unchanged"
        else:
            status = "changed"
            if fname.endswith(".qasm") and old is not None:
                was = _shape(old.decode("utf-8", "replace"))
                if was:
                    status += f" ({was} -> {_shape(text)})"
            elif fname.endswith(".qwir") and old is not None:
                same = renumbered(old.decode("utf-8", "replace")) == renumbered(text)
                status += (" (equal after renumbering values)" if same
                           else " (differs after renumbering values)")
        path.write_bytes(data)
        print(f"{fname}: {status}")
    return 0


def _shape(qasm: str) -> str | None:
    """QASM text's declared width and depth, or None if it does not read."""
    width = re.search(r"^qubit\[(\d+)\] q;$", qasm, re.M)
    if width is None:
        return None
    try:
        fn = read_qasm3(qasm).entry_fn
    except CompileError:
        return None
    return f"qubit[{width.group(1)}] depth {allocate(fn, reuse=False).depth}"


def renumbered(qwir: str) -> str:
    """``qwir`` with its ``%`` values numbered 0, 1, ... in the order they
    first appear."""
    names: dict[str, str] = {}
    return re.sub(r"%\d+", lambda v: names.setdefault(v[0], f"%{len(names)}"),
                  qwir)


def _close(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) < 1e-9 for k in keys)


if __name__ == "__main__":
    raise SystemExit(main())
