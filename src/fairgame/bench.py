"""Benchmark harness: run solvers over a set of instance files.

Each (instance, solver) pair becomes one CSV row. Solve time covers the
solver call only, not parsing. Region sizes are reported for completed runs,
empty fields otherwise.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from .game import Deadline, SolverTimeout, SubgameView
from .fixpoint import solve_odd_fp
from .pgfile import parse_game
from .zielonka import solve_zielonka_fair, solve_zielonka_normal

SOLVER_TAGS = ("of-zl", "of-fp", "n-zl", "n-fp")
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
    view = SubgameView.full(game)
    deadline = Deadline(timeout) if timeout is not None else None
    status = "ok"
    win_even = win_odd = None
    t0 = time.perf_counter()
    try:
        if solver == "of-zl":
            art = solve_zielonka_fair(view, deadline=deadline)
            win_even, win_odd = len(art.win_even), len(art.win_odd)
        elif solver == "n-zl":
            art = solve_zielonka_normal(view, deadline=deadline)
            win_even, win_odd = len(art.win_even), len(art.win_odd)
        else:
            use_live = solver == "of-fp"
            w_odd, _ = solve_odd_fp(
                view, use_live=use_live, ranks=False, deadline=deadline
            )
            win_odd = len(w_odd)
            win_even = game.n - win_odd
    except SolverTimeout:
        status = "timeout"
        win_even = win_odd = None
    except Exception:
        status = "error"
        win_even = win_odd = None
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
