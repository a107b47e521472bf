"""Compare two source trees on the benchmark and write a BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent-tree P --change-tree C --parent-rev REV \
        --out BENCH_tag.json --section untraced --workload W --seed S --pairs N \
        [--previous BENCH_prev.json] [--note TEXT]
    python3 tools/bench_pairs.py ... --section traced --trace --workload W --seed S
    python3 tools/bench_pairs.py ... --section fixpoint_calls --calls

Each tree is the root of a checkout with src/, benchmark/ and BENCHMARK.json.
The untraced mode runs the tree's own unchanged `benchmark/run.py` (with
BENCHMARK.json's run_seconds) in N pairs per workload, one run at a time,
alternating which tree runs first, and summarises each end-to-end metric:
both sides' medians and quartiles, the change's wins per pair, whether it is
worse than the parent by more than the metric's bound, the parent's
interquartile range over its median, and whether a gain is shown (wins in
at least nine tenths of the pairs and a median gain wider than the parent's
interquartile range). `--trace` makes one traced run per tree, the per-layer
metrics of one set-up plus one round. `--calls` counts, in each tree, the
full edge counts (`count_in`, `live_count_in`), the `lpre_forall` calls and
the counts moved by difference (`fixpoint._count_moves`, where the tree has
it) of one ranked `solve_odd_fp` on fixed ladders and random games, of
the 20 unranked solves of the criterion-7 scale test, and of ranked solves
of small-check's 300 small games at alpha 100, whose time is the fixed
per-solve cost, with the seconds the solves took.

The output file is read first when it exists, and the section is replaced;
the `parent`, `previous_bench_file`, `machine` and `command` fields are
written at the top, and an untraced section is compared with the same
section of the previous file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")

COUNTER = r"""
import json, sys, time
sys.path[:0] = ["src", "benchmark"]
import gen
from fairgame import fixpoint, pgfile
from fairgame.fixpoint import solve_odd_fp
from fairgame.game import SubgameView
from fairgame.pgfile import mutate_liveness, parse_game
from fairgame.transformers import Kernels

calls = dict.fromkeys(("count_in", "live_count_in", "lpre_forall", "moves"), 0)

def wrap(owner, name, key):
    f = getattr(owner, name)
    def counted(*args):
        calls[key] += 1
        return f(*args)
    setattr(owner, name, counted)

for name in ("count_in", "live_count_in", "lpre_forall"):
    wrap(Kernels, name, name)
if hasattr(fixpoint, "_count_moves"):  # counts moved by difference, in a tree that has them
    wrap(fixpoint, "_count_moves", "moves")

def solves(games, ranks=True):
    calls.update(dict.fromkeys(calls, 0))
    t0 = time.perf_counter()
    for game in games:
        solve_odd_fp(SubgameView.full(game), ranks=ranks)
    return {**calls, "solve_s": round(time.perf_counter() - t0, 3)}
"""

GAMES = r"""
out = {
    "dual1000 alpha50 seed1": solves([mutate_liveness(parse_game(gen.ladder(1000, dual=True)), 50, 1)]),
    "ladder1000": solves([parse_game(gen.ladder(1000))]),
}
for n, p, s in ((800, 5, 1), (1500, 5, 1), (2000, 5, 1), (2000, 5, 3), (20000, 3, 3)):
    out[f"random_game({n}, {p}, {s}) alpha50 seed{s}"] = solves([mutate_liveness(parse_game(gen.random_game(n, p, s)), 50, s)])
criterion7 = [mutate_liveness(pgfile.random_game(500 + 100 * i, 5 + i % 2, 1000 + i), 50, 1000 + i) for i in range(20)]
out["criterion 7: 20 games, ranks=False"] = solves(criterion7, ranks=False)
small = [gen.sub_seed(11, 3, i) for i in range(300)]  # small-check's of-fp games at seed 11
out["300 small games alpha100"] = solves([mutate_liveness(parse_game(gen.small_game(s)), 100, s) for s in small])
print(json.dumps(out))
"""


def fixpoint_calls(tree: Path, games: str = GAMES) -> dict:
    """Run COUNTER and then `games`, code that prints one JSON line of `solves` results, in tree."""
    proc = subprocess.run([sys.executable, "-c", COUNTER + games], cwd=tree, capture_output=True, text=True, check=True)
    return last_json(proc.stdout)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    return last_json(proc.stdout)


def quartiles(values):
    return [round(q, 4) for q in statistics.quantiles(values, n=4)] if len(values) > 1 else [values[0]] * 3


def summarize(runs, bounds: dict) -> dict:
    """Per workload, each end-to-end metric of paired untraced runs.

    runs holds {"tree", "workload", "seed", "pair", "result"} entries, one
    per tree and pair; bounds maps a metric to the share by which the change
    may be worse (lower is better for every metric here).
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault((r["seed"], r["pair"]), {})[r["tree"]] = r["result"]
        pairs = list(by_pair.values())
        entry = {
            "pairs": len(pairs),
            "seeds": sorted({r["seed"] for r in mine}),
            "failed_share": {
                t: round(sum(p[t]["failed"] for p in pairs) / max(1, sum(p[t]["attempted"] for p in pairs)), 4)
                for t in TREES
            },
            "all_correct": all(p[t]["correct"] for p in pairs for t in TREES),
        }
        for metric, bound in bounds.items():
            side = {t: [p[t]["metrics"][metric]["value"] for p in pairs] for t in TREES}
            q = {t: quartiles(side[t]) for t in TREES}
            pm, cm = statistics.median(side["parent"]), statistics.median(side["change"])
            iqr = q["parent"][2] - q["parent"][0]
            wins = sum(c < p for p, c in zip(side["parent"], side["change"]))
            entry[metric] = {
                "parent_median": round(pm, 4),
                "parent_quartiles": q["parent"],
                "change_median": round(cm, 4),
                "change_quartiles": q["change"],
                "change_over_parent": round(cm / pm - 1, 4) if pm else 0.0,
                "change_wins": wins,
                "worse_by_more_than_bound": cm > pm * (1 + bound),
                "parent_iqr_over_median": round(iqr / pm, 4) if pm else 0.0,
                "unresolved": iqr > pm * bound and not max(side["change"]) < min(side["parent"]),
                "gain_shown": wins >= 0.9 * len(pairs) and pm - cm > iqr,
            }
        out[workload] = entry
    return out


def compare_with_previous(summary: dict, previous: dict) -> dict:
    """Medians beside the previous file's change median, where it has the metric."""
    out = {}
    for workload, entry in summary.items():
        old = previous.get(workload, {})
        row = {
            metric: {
                "previous_change_median": old[metric]["change_median"],
                "parent_median": entry[metric]["parent_median"],
                "change_median": entry[metric]["change_median"],
            }
            for metric, value in entry.items()
            if isinstance(value, dict) and "parent_median" in value and metric in old
        }
        if row:
            out[workload] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent-tree", type=Path, required=True)
    ap.add_argument("--change-tree", type=Path, required=True)
    ap.add_argument("--parent-rev", required=True, help="the parent commit, recorded as `parent`")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--section", required=True)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", action="store_true", help="one traced run per tree")
    ap.add_argument("--calls", action="store_true", help="fixed-point call counts per tree")
    ap.add_argument("--previous", help="the BENCH_*.json this one follows")
    ap.add_argument("--note", help="recorded as the section's note")
    args = ap.parse_args(argv)
    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    section = {"note": args.note} if args.note else {}
    if args.calls:
        for tree, root in trees.items():
            section[tree] = fixpoint_calls(root)
    elif args.trace:
        runs = [{"tree": t, "workload": w, "seed": args.seed,
                 "result": run_benchmark(trees[t], w, args.seed, spec["run_seconds"], True)}
                for w in args.workload for t in TREES]
        section["summary"] = {
            w: {m: {r["tree"]: round(r["result"]["metrics"][m]["value"], 4) for r in runs if r["workload"] == w}
                for m in runs[-1]["result"]["metrics"]}
            for w in args.workload
        }
        section["runs"] = runs
    else:
        runs = []
        for w in args.workload:
            for pair in range(args.pairs):
                for t in TREES if pair % 2 == 0 else TREES[::-1]:
                    result = run_benchmark(trees[t], w, args.seed, spec["run_seconds"], False)
                    runs.append({"tree": t, "workload": w, "seed": args.seed, "pair": pair, "result": result})
                    print(f"{w} pair {pair} {t}: " + " ".join(
                        f"{m} {result['metrics'][m]['value']:.4g}" for m in bounds), file=sys.stderr)
        section["summary"] = summarize(runs, bounds)
        section["runs"] = runs

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "parent": args.parent_rev,
        "machine": f"{os.cpu_count()} CPUs, {platform.system()}, Python {platform.python_version()}; "
                   "one run at a time, parent and change alternating which runs first",
        "command": "python3 benchmark/run.py --workload W --seed S --seconds RUN_SECONDS [--trace 1], "
                   "run in each tree by tools/bench_pairs.py",
    })
    if args.previous:
        doc["previous_bench_file"] = args.previous
        previous = json.loads(Path(args.previous).read_text())
        if "summary" in section and not args.trace and args.section in previous:
            section["compared_with_previous"] = compare_with_previous(
                section["summary"], previous[args.section].get("summary", {}))
    doc[args.section] = section
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
