"""Command line surface.

`solve` and `check` run one path: load the file; under the classical `n-*`
tags, which ignore live edges, drop them, so that templates are built and
certified on the game those solvers play; solve through
`bench.solve_instance`; certify. `check` is `solve --certify` without the
printed regions. A given `--timeout` is always a deadline, `--timeout 0`
included.

Exit codes: 0 success, 1 input or usage error, 2 certification failure,
3 solver timeout, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .bench import FAIR_TAGS, SOLVER_TAGS, run_bench, write_csv
from .bench import solve_instance as _solve_instance
from .certify import certify_partition
from .fixpoint import extract_ranks
from .game import Deadline, SolverTimeout
from .pgfile import ParseError, mutate_liveness, mutate_priorities, parse_game, write_game
from .report import ReportError, write_report
from .templates import format_strategy, format_template


def _load_game(path: str):
    try:
        return parse_game(Path(path).read_text())
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except (ParseError, UnicodeDecodeError) as exc:
        print(f"parse error in {path}: {exc}", file=sys.stderr)
    return None


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"cannot write {path}: {exc}", file=sys.stderr)
    return 1


def _region_line(game, name, region) -> str:
    labels = sorted(game.label(v) for v in region)
    return f"{name}:" + ("" if not labels else " " + " ".join(labels))


def _played_game(game, algo):
    # the classical readings ignore live edges: they are solved and certified without them
    return game if algo in FAIR_TAGS else mutate_liveness(game, 0, 0)


def cmd_solve(args) -> int:
    game = _load_game(args.file)
    if game is None:
        return 1
    game = _played_game(game, args.algo)
    deadline = Deadline(args.timeout)
    try:
        w_even, w_odd, template, strategy, trace = _solve_instance(
            game, args.algo, deadline, args.template or args.certify
        )
        if args.ranks and trace is None:
            # ranks come from the fixed-point solver of the same reading
            trace = _solve_instance(game, args.algo.replace("-zl", "-fp"), deadline, False)[4]
    except SolverTimeout:
        print("timeout", file=sys.stderr)
        return 3
    if args.print_regions:
        print(_region_line(game, "W_Even", w_even))
        print(_region_line(game, "W_Odd", w_odd))
    if args.ranks:
        ranks = extract_ranks(trace)
        for v in sorted(trace.region, key=game.label):
            tup = ", ".join(map(str, ranks[v].interleaved()))
            print(f"rank {game.label(v)} ({tup})")
    if args.template:
        sys.stdout.write(format_template(game, template))
        sys.stdout.write(format_strategy(game, strategy))
    if args.certify:
        res = certify_partition(game, w_even, w_odd, strategy, template)
        print(res.detail)
        if not res.certified:
            return 2
    return 0


def cmd_mutate(args) -> int:
    game = _load_game(args.file)
    if game is None:
        return 1
    seed = args.seed
    if seed is None:
        env = os.environ.get("FAIRGAME_SEED", "1")
        try:
            seed = int(env)
        except ValueError:
            print(f"FAIRGAME_SEED is not an integer: {env!r}", file=sys.stderr)
            return 1
    try:
        if args.priorities is not None:
            game = mutate_priorities(game, args.priorities, seed)
        game = mutate_liveness(game, args.liveness, seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    text = write_game(game)
    try:
        Path(args.output).write_text(text)
    except OSError as exc:
        return _cannot_write(args.output, exc)
    return 0


def cmd_bench(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        print(f"not a directory: {args.directory}", file=sys.stderr)
        return 1
    paths = sorted(
        str(p) for p in root.iterdir() if p.is_file() and not p.name.startswith(".")
    )
    if not paths:
        print(f"no instance files in {args.directory}", file=sys.stderr)
        return 1
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    bad = [a for a in algos if a not in SOLVER_TAGS]
    if bad or not algos:
        print(f"unknown algorithms: {', '.join(bad) or '(none given)'}", file=sys.stderr)
        return 1
    try:
        Path(args.out).write_text("")  # an unwritable path is reported before any solve
    except OSError as exc:
        return _cannot_write(args.out, exc)
    records = run_bench(paths, algos, args.timeout, jobs=args.jobs)
    try:
        write_csv(records, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def cmd_report(args) -> int:
    try:
        summary = write_report(args.csv, args.x, args.y, args.out, log=args.log)
    except (OSError, ReportError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    sys.stdout.write(summary)
    print(f"wrote {args.out}")
    return 0


def _seconds(text: str) -> float:
    """A --timeout value: any float but NaN, a deadline no clock reaches."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return value


@functools.cache  # building it costs more than solving a small game
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgame",
        description="Solve, mutate, benchmark and certify parity games with live edges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance and print the winning regions")
    p.add_argument("file")
    p.add_argument("--algo", default="of-zl", choices=SOLVER_TAGS)
    p.add_argument("--template", action="store_true", help="print the Odd template and Even strategy")
    p.add_argument("--certify", action="store_true", help="certify the regions with their strategy and template")
    p.add_argument("--ranks", action="store_true", help="print per-vertex ranks")
    p.add_argument("--timeout", type=_seconds, default=None)
    p.set_defaults(func=cmd_solve, print_regions=True)

    p = sub.add_parser("mutate", help="derive an instance with random live edges or priorities")
    p.add_argument("file")
    p.add_argument("--liveness", type=float, required=True, help="percentage of Odd vertices given live edges")
    p.add_argument("--priorities", type=int, default=None, help="redraw priorities uniformly from 1..P")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("bench", help="run solvers over a directory of instances")
    p.add_argument("directory")
    p.add_argument("--algos", default=",".join(SOLVER_TAGS))
    p.add_argument("--timeout", type=_seconds, default=60.0)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="scatter plot of one solver against another")
    p.add_argument("csv")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("-o", "--out", default="scatter.svg")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check", help="solve and certify one instance")
    p.add_argument("file")
    p.add_argument("--algo", default="of-fp", choices=SOLVER_TAGS)
    p.add_argument("--timeout", type=_seconds, default=None)
    p.set_defaults(func=cmd_solve, print_regions=False, certify=True, template=False, ranks=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # a fault of the program, reported in one line
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
