"""End-to-end benchmark of the fairgame CLI.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src. The run builds its inputs from the seed (the set-up, repeated and
timed several times), then runs whole rounds of the workload's operations
one after another until the timed operations add up to S seconds; checking
time does not count, so the number of rounds does not depend on it. One
operation is one in-process `fairgame.cli.main(["solve", FILE, "--algo", A,
"--template"])` call, timed from entry to return with stdout captured in
memory. Every output is then checked by `checker.py` in a child process,
outside the timed span.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the program's public functions are wrapped (see spans.py) and
the metrics are per layer, for one set-up plus one round.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import workloads  # noqa: E402


def load_program():
    """Import fairgame from the checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "fairgame" / "cli.py").is_file():
        print(f"no program source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fairgame.cli

    if Path(fairgame.cli.__file__).resolve().parent != (src / "fairgame").resolve():
        print(f"fairgame was imported from {fairgame.cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return fairgame.cli


def call(cli, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the operation failed; keep going
            code = f"exception {type(exc).__name__}"
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt


def setup(cli, plan, work: Path, tracer, rep: int) -> float:
    """Write the base games and fixed files, then derive the instances."""
    t0 = time.perf_counter()
    for name, text in plan.bases:
        (work / name).write_text(text())
    for name, text in plan.fixed:
        (work / name).write_text(text)
    for j, (out, base, alpha, seed) in enumerate(plan.mutations):
        if tracer is not None:
            tracer.op_id = -1 - (rep * len(plan.mutations) + j)
        code, _, _ = call(cli, ["mutate", str(work / base), "--liveness", str(alpha),
                                "--seed", str(seed % 2**31), "-o", str(work / out)])
        if code != 0:
            raise RuntimeError(f"fairgame mutate failed on {base} at alpha {alpha}: {code}")
    return time.perf_counter() - t0


# The check each known fault fails; an operation labelled with a fault
# (workloads.Op.fault) that fails this check is counted under the fault.
FAULT_CHECKS = {"A": "template-shape", "B": "template-wins"}


def verdict(game, op, code, stdout, certify: bool):
    """None when every check passes, else the failure reason."""
    if isinstance(code, str):
        return code
    try:
        output = checker.read_output(stdout)
    except checker.CheckFailure as exc:
        return f"{exc.check} (exit {code})"
    try:
        checker.check(game, output, fair=op.algo.startswith("of-"), winner=op.winner)
        reason = None
    except checker.CheckFailure as exc:
        reason = op.fault if op.fault and FAULT_CHECKS[op.fault] == exc.check else exc.check
    if certify:
        certified = code == 0 and output.rest == ["both regions certified"]
        if certified != (reason is None) or (not certified and code != 2):
            return "certify-disagrees"
    elif code != 0:
        return reason or f"exit {code}"
    return reason


def check_worker(conn, work: Path, certify: bool) -> None:
    """Answers each (op, code, stdout) sent on conn with its verdict, until None."""
    games = {}
    while (request := conn.recv()) is not None:
        op, code, stdout = request
        if op.file not in games:
            games[op.file] = checker.read_game((work / op.file).read_text())
        conn.send(verdict(games[op.file], op, code, stdout, certify))


class Verifier:
    """Checks operations in a child process, so that the checker's memory
    stays out of peak_rss_mb. Verdicts are kept per digest of distinct output."""

    def __init__(self, work: Path, certify: bool):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=check_worker, args=(child, work, certify), daemon=True)
        self.proc.start()
        child.close()
        self.verdicts = {}

    def __call__(self, op, code, stdout):
        key = (op, code, hashlib.sha256(stdout.encode()).digest())
        if key not in self.verdicts:
            self.conn.send((op, code, stdout))
            self.verdicts[key] = self.conn.recv()
        return self.verdicts[key]

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.conn.send(None)
        self.proc.join(30)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    plan = workloads.WORKLOADS[args.workload](args.seed)
    base_dir = ROOT / ".bench_work"
    work = base_dir / f"{args.workload}-seed{args.seed}"
    verify = Verifier(work, plan.certify)  # forked before the program is imported
    try:
        cli = load_program()
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        setups = [setup(cli, plan, work, tracer, r) for r in range(plan.setup_repeats)]
        extra = ["--certify"] if plan.certify else []
        times, round_walls = [], []
        failures = Counter()
        while sum(round_walls) < args.seconds:
            gc.collect()
            wall = 0.0
            for j, op in enumerate(plan.ops):
                if tracer is not None:
                    tracer.op_id = len(round_walls) * len(plan.ops) + j
                code, stdout, dt = call(cli, ["solve", str(work / op.file), "--algo", op.algo, "--template"] + extra)
                wall += dt
                times.append(dt)
                reason = verify(op, code, stdout)
                if reason is not None:
                    failures[reason] += 1
            round_walls.append(wall)
    finally:
        verify.close()
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(round_walls)
    wall_s = statistics.median(round_walls)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, plan.setup_repeats, rounds)
        trace_dir = base_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{args.workload}-seed{args.seed}.npz")
        print(f"traced wall_s {wall_s:.4f} s, setup_s {statistics.median(setups):.4f} s", file=sys.stderr)

    attempted = rounds * len(plan.ops)
    failed = sum(failures.values())
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(plan.ops)} operations")
    print(f"attempted {attempted} failed {failed}"
          + "".join(f"; {reason}: {count}" for reason, count in sorted(failures.items())))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": all(reason in FAULT_CHECKS for reason in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# Per-layer metrics: (name, span, field, unit); field is calls, self or size.
LAYERS = [
    ("pgfile.parse_s", "pgfile.parse", "self", "s"),
    ("pgfile.input_mb", "pgfile.parse", "size", "MB"),
    ("pgfile.mutate_s", "pgfile.mutate", "self", "s"),
    ("pgfile.write_s", "pgfile.write", "self", "s"),
    ("game.construct_s", "game.construct", "self", "s"),
    ("game.constructs", "game.construct", "calls", "count"),
    ("game.live_edges", "game.construct", "size", "count"),
    ("game.view_s", "game.view", "self", "s"),
    ("game.views", "game.view", "calls", "count"),
    ("transformers.kernel_builds", "transformers.kernel_build", "calls", "count"),
    ("transformers.kernel_build_s", "transformers.kernel_build", "self", "s"),
    ("transformers.count_in_calls", "transformers.count_in", "calls", "count"),
    ("transformers.count_in_s", "transformers.count_in", "self", "s"),
    ("transformers.edges_gathered", "transformers.count_in", "size", "count"),
    ("transformers.operator_calls", "transformers.operator", "calls", "count"),
    ("transformers.operator_s", "transformers.operator", "self", "s"),
    ("fixpoint.solve_s", "fixpoint.solve", "self", "s"),
    ("fixpoint.solves", "fixpoint.solve", "calls", "count"),
    ("fixpoint.extract_ranks_s", "fixpoint.extract_ranks", "self", "s"),
    ("zielonka.solve_s", "zielonka.solve", "self", "s"),
    ("zielonka.solves", "zielonka.solve", "calls", "count"),
    ("templates.close_live_cycles_s", "templates.close_live_cycles", "self", "s"),
    ("templates.build_rank_template_s", "templates.build_rank_template", "self", "s"),
    ("templates.even_strategy_s", "templates.even_strategy", "self", "s"),
    ("templates.format_s", "templates.format", "self", "s"),
    ("templates.template_edges", "templates.format", "size", "count"),
    ("certify.certify_s", "certify.certify", "self", "s"),
    ("certify.calls", "certify.certify", "calls", "count"),
    ("cli.self_s", "cli.main", "self", "s"),
]


def layer_metrics(tracer, setups: int, rounds: int) -> dict:
    """Each layer's work for one set-up plus one round of operations."""
    totals = tracer.layer_totals(lambda op: 1 / setups if op < 0 else 1 / rounds)
    field = {"calls": 0, "self": 1, "size": 2}
    return {
        name: (totals.get(span, (0.0, 0.0, 0.0))[field[f]], unit)
        for name, span, f, unit in LAYERS
    }


if __name__ == "__main__":
    sys.exit(main())
