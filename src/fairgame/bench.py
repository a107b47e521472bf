"""Solver tags, the one map from a tag to solver calls, and the benchmark harness.

`solve_instance` is the only place that turns a tag into solver calls; the
CLI's `solve` and `check` and the harness's `run_instance` all go through it.
It solves the game it is given: the classical `n-*` readings ignore live
edges (`n-fp` is the fair fixed point on `game.with_live(())`), and callers
that also want artifacts free of them strip the edges first.

The harness runs solvers over a set of instance files. Each (instance,
solver) pair becomes one CSV row. Solve time covers the `solve_instance`
call only, not parsing. Region sizes are reported for completed runs, empty
fields otherwise.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from .game import Deadline, SolverTimeout, SubgameView
from .fixpoint import extract_ranks, solve_odd_fp
from .pgfile import parse_game
from .templates import build_rank_template, extract_even_strategy
from .zielonka import solve_zielonka_fair, solve_zielonka_normal

FAIR_TAGS = ("of-zl", "of-fp")  # the solvers that assume fairness on live edges
SOLVER_TAGS = FAIR_TAGS + ("n-zl", "n-fp")
CSV_HEADER = "instance,solver,vertices,edges,priorities,live_edges,time_ms,status,win_even,win_odd"


@dataclass
class BenchRecord:
    instance: str
    solver: str
    vertices: int
    edges: int
    priorities: int
    live_edges: int
    time_ms: float
    status: str
    win_even: Optional[int]
    win_odd: Optional[int]

    def csv_row(self) -> str:
        we = "" if self.win_even is None else str(self.win_even)
        wo = "" if self.win_odd is None else str(self.win_odd)
        return (
            f"{self.instance},{self.solver},{self.vertices},{self.edges},"
            f"{self.priorities},{self.live_edges},{self.time_ms:.3f},{self.status},{we},{wo}"
        )


def solve_instance(game, algo, deadline, want_artifacts, want_ranks=False):
    """Returns (w_even, w_odd, template, strategy, odd_trace) of solver tag algo.

    odd_trace is the fixed-point trace of the tag's reading, under `*-fp` or
    when want_ranks, and None otherwise; it records ranks when want_ranks or
    want_artifacts (the `*-fp` template is built from them). template and
    strategy are None unless want_artifacts.
    """
    if algo not in SOLVER_TAGS:
        raise ValueError(f"unknown solver tag {algo!r}")
    view = SubgameView.full(game)
    fair = algo in FAIR_TAGS
    zl = algo.endswith("-zl")
    template = strategy = trace = None
    if zl:
        solver = solve_zielonka_fair if fair else solve_zielonka_normal
        art = solver(view, extract=want_artifacts, deadline=deadline)
        w_even, w_odd = art.win_even, art.win_odd
        template, strategy = art.odd_template, art.even_strategy
    if want_ranks or not zl:
        # the classical fixed point is the fair one on the game without live edges
        played = view if fair or not game.live else SubgameView.full(game.with_live(()))
        fp_odd, trace = solve_odd_fp(played, ranks=want_ranks or want_artifacts, deadline=deadline)
    if not zl:
        w_even, w_odd = fp_odd.complement(), fp_odd
        if want_artifacts:
            template = build_rank_template(view, w_odd, extract_ranks(trace))
            strategy = extract_even_strategy(played, trace=trace, deadline=deadline)
    return w_even, w_odd, template, strategy, trace


def run_instance(path: str, solver: str, timeout: Optional[float]) -> BenchRecord:
    if solver not in SOLVER_TAGS:
        raise ValueError(f"unknown solver tag {solver!r}")
    name = Path(path).stem
    try:
        game = parse_game(Path(path).read_text())
    except Exception:
        return BenchRecord(name, solver, 0, 0, 0, 0, 0.0, "error", None, None)
    vertices = game.n
    edges = sum(len(ws) for ws in game.succ)
    priorities = len(set(game.priority))
    live_edges = len(game.live)
    deadline = Deadline(timeout)
    status = "ok"
    win_even = win_odd = None
    t0 = time.perf_counter()
    try:
        w_even, w_odd = solve_instance(game, solver, deadline, False, False)[:2]
        win_even, win_odd = len(w_even), len(w_odd)
    except SolverTimeout:
        status = "timeout"
    except Exception:
        status = "error"
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return BenchRecord(
        name, solver, vertices, edges, priorities, live_edges,
        elapsed_ms, status, win_even, win_odd,
    )


def _worker(task) -> BenchRecord:
    path, solver, timeout = task
    return run_instance(path, solver, timeout)


def run_bench(
    paths: Sequence[str],
    solvers: Sequence[str],
    timeout: Optional[float],
    jobs: int = 1,
) -> List[BenchRecord]:
    tasks = [(str(p), s, timeout) for p in sorted(paths) for s in solvers]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_worker, tasks))
    else:
        records = [_worker(t) for t in tasks]
    records.sort(key=lambda r: (r.instance, r.solver))
    return records


def write_csv(records: Sequence[BenchRecord], path: str) -> None:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    Path(path).write_text("\n".join(lines) + "\n")
