"""Command-line driver: check, compile, run, and stats subcommands."""

from __future__ import annotations

import argparse
import os
import sys

from .diagnostics import CompileError
from .pipeline import Options, compile_source, compile_to_circuit, front, stats_for
from .run import SimulationError, simulate

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbc", description="basis-oriented quantum language compiler"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="parse and type check")
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
        "often each returned bitstring was seen. The simulator runs each "
        "measurement branch once and shares the shots out binomially at "
        "each measurement, so the same seed always gives the same "
        "histogram.")
    _add_common(p_run)
    _add_opt_flags(p_run)
    p_run.add_argument("--shots", type=int, default=1024,
                       help="number of shots (>= 0; default 1024)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default 0; QBC_SEED overrides)")

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
            front(source, args.file, opts)
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
            seed = args.seed
            if "QBC_SEED" in os.environ:
                try:
                    seed = int(os.environ["QBC_SEED"])
                except ValueError:
                    print(f"qbc: bad QBC_SEED {os.environ['QBC_SEED']!r}",
                          file=sys.stderr)
                    return EXIT_USAGE
            qc = compile_to_circuit(source, args.file, opts)
            hist = simulate(qc, shots=args.shots, seed=seed)
            for key in sorted(hist):
                sys.stdout.write(f"{key}\t{hist[key]}\n")
            return EXIT_OK
        if args.cmd == "stats":
            print(stats_for(source, args.file, opts).render())
            return EXIT_OK
    except CompileError as e:
        for d in e.diagnostics:
            print(d.render(), file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except SimulationError as e:
        print(f"qbc: simulation error: {e}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
