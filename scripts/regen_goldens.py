#!/usr/bin/env python3
"""Regenerate, or with --check verify, the golden basis IR, QASM and QIR
outputs of the benchmark programs.

Each golden is verified before freezing: the QASM text is re-ingested and
its exact output distribution compared against the directly compiled
circuit. Rewriting prints, for each file it writes, whether its bytes
changed; for a changed QASM golden it also prints the old and new declared
width and depth, so a layout change shows in review. ``--check`` compiles
and verifies the same way but writes nothing; it compares every output byte
for byte with ``tests/goldens/`` and exits 1 naming every mismatch.

    python3 scripts/regen_goldens.py           # rewrite tests/goldens/
    python3 scripts/regen_goldens.py --check   # verify them
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from qasm_reader import read_qasm3  # noqa: E402
from qbc.backends import BackendError, allocate  # noqa: E402
from qbc.diagnostics import CompileError  # noqa: E402
from qbc.pipeline import Options, compile_source, compile_to_circuit  # noqa: E402
from qbc.run import distribution  # noqa: E402

BENCHMARKS = ["bell", "bv", "dj", "grover", "simon", "period", "teleport"]
GOLDEN_DIR = ROOT / "tests" / "goldens"


class GoldenError(Exception):
    """The re-ingested QASM's distribution differs from the circuit's."""


def goldens(name: str) -> dict[str, str | None]:
    """Golden file name -> its text, or None where the backend cannot
    express the program (teleport's branches have no QIR). ``.qwir`` holds
    the inlined basis IR (``--emit qwerty-ir``), ``.qasm`` and ``.ll`` the
    backends' output.

    Raises GoldenError if the re-ingested QASM's distribution differs.
    """
    src_path = ROOT / "benchmarks" / f"{name}.qw"
    source = src_path.read_text()
    opts = Options()
    qwir = compile_source(source, str(src_path), opts, "qwerty-ir")
    qasm = compile_source(source, str(src_path), opts, "qasm")
    circuit = compile_to_circuit(source, str(src_path), opts)
    want = distribution(circuit, all_bits=True)
    got = distribution(read_qasm3(qasm), all_bits=True)
    if not _close(want, got):
        raise GoldenError(f"{name}: re-ingested distribution differs")
    try:
        qir = compile_source(source, str(src_path), opts, "qir")
    except CompileError:  # the QIR backend rejected the program
        qir = None
    return {f"{name}.qwir": qwir, f"{name}.qasm": qasm, f"{name}.ll": qir}


def check() -> list[str]:
    """Every way the goldens differ from the compiler's output."""
    problems = []
    for name in BENCHMARKS:
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
    for name in BENCHMARKS:
        for fname, text in goldens(name).items():
            path = GOLDEN_DIR / fname
            if text is None:
                print(f"{name}: no {fname}")
                continue
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
    except BackendError:
        return None
    return f"qubit[{width.group(1)}] depth {allocate(fn, reuse=False).depth}"


def _close(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) < 1e-9 for k in keys)


if __name__ == "__main__":
    raise SystemExit(main())
