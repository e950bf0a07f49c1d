"""Command-line driver: check, compile, run, and stats subcommands.

Only ``run`` loads the simulator, and with it numpy: the other commands
start without it.
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import CompileError
from .pipeline import Options, compile_source, compile_to_circuit, stats_for

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="source file (.qw)")
    p.add_argument("-D", action="append", default=[], metavar="N=4",
                   help="bind a dimension variable of the entry kernel")


def _add_opt_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-O0", dest="opt_level", action="store_const", const=0,
                   default=1, help="disable gate-level optimization and give "
                   "every allocation a fresh register")
    p.add_argument("-O1", dest="opt_level", action="store_const", const=1,
                   help="enable gate-level optimization and reuse zeroed "
                   "registers, earliest-finished first (default)")
    p.add_argument("--no-decompose", action="store_true",
                   help="keep multi-controlled gates")


def _options(args) -> Options:
    dims = {}
    for p in args.D:
        name, _, value = p.partition("=")
        try:
            dims[name.strip()] = int(value)
        except ValueError:
            print(f"qbc: bad -D binding {p!r}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return Options(
        opt_level=getattr(args, "opt_level", 1),
        decompose=not getattr(args, "no_decompose", False),
        dims=dims,
    )


def _run(args, source: str, opts: Options) -> int:
    """Compile, simulate and print the histogram; a compile error reaches
    ``main``."""
    from .run import SimulationError, simulate

    qc = compile_to_circuit(source, args.file, opts)
    try:
        hist = simulate(qc, shots=args.shots, seed=args.seed)
    except SimulationError as e:
        print(f"qbc: simulation error: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    for key in sorted(hist):
        sys.stdout.write(f"{key}\t{hist[key]}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbc", description="basis-oriented quantum language compiler"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser(
        "check", help="compile without a backend and report any diagnostic",
        description="Compile to the gate level, so check fails exactly where "
        "compile does, but for the two programs only --emit qir rejects.")
    _add_common(p_check)

    p_compile = sub.add_parser("compile", help="compile to an output format")
    _add_common(p_compile)
    _add_opt_flags(p_compile)
    p_compile.add_argument(
        "--emit", choices=["ast", "qwerty-ir", "qcircuit-ir", "qasm", "qir"],
        default="qasm",
    )
    p_compile.add_argument("-o", dest="out", default=None, help="output file")

    p_run = sub.add_parser(
        "run", help="simulate and print a histogram",
        description="Compile and simulate the entry kernel, printing how "
        "often each returned bitstring was seen. The simulator stores only "
        "the nonzero amplitudes (at most 2^20, over at most 62 live "
        "qubits). It runs each measurement branch once, reads the "
        "measurements after the last gate off the state in one pass, and "
        "shares each branch's shots out by one multinomial draw, so the "
        "same seed always gives the same histogram.")
    _add_common(p_run)
    _add_opt_flags(p_run)
    p_run.add_argument("--shots", type=int, default=1024,
                       help="number of shots (0 to 2^63 - 1; default 1024)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default 0)")

    p_stats = sub.add_parser(
        "stats", help="print compile statistics",
        description="Print the gate, T and CX counts of the compiled circuit "
        "and the register width its OpenQASM declares under the same "
        "options.")
    _add_common(p_stats)
    _add_opt_flags(p_stats)

    args = parser.parse_args(argv)
    try:
        source = open(args.file, encoding="utf-8").read()
    except OSError as e:
        print(f"qbc: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as e:
        print(f"qbc: {args.file}: not UTF-8 (byte {e.start}: {e.reason})",
              file=sys.stderr)
        return EXIT_DIAGNOSTICS

    opts = _options(args)
    try:
        if args.cmd == "check":
            compile_to_circuit(source, args.file, opts)
            return EXIT_OK
        if args.cmd == "compile":
            text = compile_source(source, args.file, opts, args.emit)
            if not args.out:
                sys.stdout.write(text)
                return EXIT_OK
            try:
                with open(args.out, "w", encoding="utf-8", newline="\n") as f:
                    f.write(text)
            except OSError as e:
                print(f"qbc: {e}", file=sys.stderr)
                return EXIT_USAGE
            return EXIT_OK
        if args.cmd == "run":
            return _run(args, source, opts)
        if args.cmd == "stats":
            print(stats_for(source, args.file, opts).render())
            return EXIT_OK
    except CompileError as e:
        print(e, file=sys.stderr)
        return EXIT_DIAGNOSTICS
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
