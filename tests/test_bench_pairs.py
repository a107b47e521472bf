import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(wall, rss, failed=0):
    return {"correct": True, "attempted": 20, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def paired_runs(parent, change, workload="w", seed=11):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        order = [("parent", p), ("change", c)] if pair % 2 == 0 else [("change", c), ("parent", p)]
        runs += [{"tree": t, "workload": workload, "seed": seed, "pair": pair, "result": result(*v)}
                 for t, v in order]
    return runs


def test_summary_of_fixed_runs():
    parent = [(1.0 + i / 10, 40.0) for i in range(10)]  # wall 1.0 .. 1.9
    change = [(0.5 + i / 10, 48.0) for i in range(9)] + [(2.0, 48.0, 2)]  # the last pair loses
    got = bench_pairs.summarize(paired_runs(parent, change), {"wall_s": 0.25, "peak_rss_mb": 0.1})["w"]
    assert (got["pairs"], got["seeds"], got["all_correct"]) == (10, [11], True)
    assert got["failed_share"] == {"parent": 0.0, "change": 0.01}
    wall = got["wall_s"]
    assert wall["parent_median"] == 1.45 and wall["change_median"] == 0.95
    # statistics.quantiles, exclusive method: the 2.75th and 8.25th of ten
    assert wall["parent_quartiles"] == [1.175, 1.45, 1.725]
    assert wall["change_quartiles"] == [0.675, 0.95, 1.225]
    assert wall["change_over_parent"] == pytest.approx(-0.3448, abs=1e-4)
    assert wall["change_wins"] == 9
    assert wall["parent_iqr_over_median"] == pytest.approx(0.55 / 1.45, abs=1e-4)
    assert not wall["worse_by_more_than_bound"]
    assert wall["unresolved"]  # the parent spreads wider than the bound, and the runs overlap
    assert not wall["gain_shown"]  # 9 of 10 pairs, but a 0.5 s gain inside the parent's 0.55 s IQR
    rss = got["peak_rss_mb"]
    assert rss["change_over_parent"] == 0.2 and rss["worse_by_more_than_bound"]
    assert rss["change_wins"] == 0 and not rss["gain_shown"] and not rss["unresolved"]


def test_compare_with_previous_keeps_the_shared_metrics():
    summary = bench_pairs.summarize(paired_runs([(1.0, 40.0)] * 2, [(0.8, 40.0)] * 2), {"wall_s": 0.25})
    previous = {"w": {"wall_s": {"change_median": 0.9}}, "other": {"wall_s": {"change_median": 3.0}}}
    assert bench_pairs.compare_with_previous(summary, previous) == {
        "w": {"wall_s": {"previous_change_median": 0.9, "parent_median": 1.0, "change_median": 0.8}}
    }
    assert bench_pairs.compare_with_previous(summary, {}) == {}
    wall = summary["w"]["wall_s"]
    assert wall["gain_shown"] and not wall["unresolved"]  # every change run beats every parent run


def test_fixpoint_calls_count_full_and_difference_updates():
    games = 'print(json.dumps({"ladder20": solves([parse_game(gen.ladder(20))])}))'
    got = bench_pairs.fixpoint_calls(ROOT, games)["ladder20"]
    assert got.pop("solve_s") >= 0
    # one full count per chain of X1 values, every later count moved by difference
    assert got == {"count_in": 2, "live_count_in": 0, "lpre_forall": 2, "moves": 39}
