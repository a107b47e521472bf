import gc
import hashlib
import operator
import random
from functools import reduce
from itertools import product
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from fairgame import cli, fixpoint
from fairgame.bench import SOLVER_TAGS, solve_instance
from fairgame.certify import certify_partition
from fairgame.cli import _played_game
from fairgame.game import (
    EVEN, ODD, Deadline, Region, SolverTimeout, SubgameView, least_even_upperbound,
)
from fairgame.fixpoint import (
    FpTrace, _run, _var_name, extract_ranks, m_set, solve_even_fp, solve_odd_fp,
)
from fairgame.pgfile import mutate_liveness, random_game, write_game
from fairgame.transformers import Kernels, mask_to_np, np_to_mask

from conftest import build_game, make_g3, offset_ladder, small_games

EX1_W_ODD = ["1a", "2b", "2c", "3a", "3b", "4a"]

# hand-checked final ranks for ex1, interleaved form
EX1_RANKS = {
    "1a": (2, 0, 3, 0),
    "2b": (1, 0, 2, 0),
    "2c": (1, 0, 3, 0),
    "3a": (2, 0, 1, 0),
    "3b": (1, 0, 1, 0),
    "4a": (2, 0, 1, 0),
}


def names_of(game, region):
    return sorted(game.names[v] for v in region)


def cls(game, i):
    return {v for v in range(game.n) if game.priority[v] == i}


def test_golden_regions(ex1, ex1_view):
    w_odd, _ = solve_odd_fp(ex1_view)
    assert names_of(ex1, w_odd) == EX1_W_ODD
    assert names_of(ex1, w_odd.complement()) == ["2a"]
    w_even, _ = solve_even_fp(ex1_view)
    assert names_of(ex1, w_even) == ["2a"]


def test_golden_trace_checkpoints(ex1, ex1_view):
    _, tr = solve_odd_fp(ex1_view, snapshots=True)
    c1, c3 = cls(ex1, 1), cls(ex1, 3)
    by_name = {ex1.names[v]: v for v in range(ex1.n)}

    def snap(key):
        return set(tr.snapshots[key])

    assert snap(("X1", (0, 0, 0, 1))) == c3 | c1
    assert snap(("Y2", (0, 0, 1))) == c3
    assert snap(("Y2", (0, 0, 2))) == c3 | {by_name["2b"]}
    assert snap(("Y4", (1,))) == {by_name["2b"], by_name["2c"], by_name["3b"]}


def test_golden_final_iterate_is_the_region(ex1, ex1_view):
    w_odd, tr = solve_odd_fp(ex1_view, snapshots=True)
    last = tr.counters[4]
    assert set(tr.snapshots[("Y4", (last,))]) == set(w_odd)
    # the confirming extra iteration changed nothing
    assert set(tr.snapshots[("Y4", (last - 1,))]) == set(w_odd)


def test_golden_ranks_and_m_set(ex1, ex1_view):
    _, tr = solve_odd_fp(ex1_view, ranks=True)
    ranks = extract_ranks(tr)
    got = {ex1.names[v]: r.interleaved() for v, r in ranks.items()}
    assert got == EX1_RANKS
    m = m_set(tr)
    assert names_of(ex1, m) == ["3b"]
    assert all(ex1.priority[v] % 2 == 1 for v in m)


def rank_oracle(trace):
    """Rank readout straight from snapshots: first mu iterate containing the
    vertex, in the context fixed by the outer components (mu counters one
    below them) and by the last pass of each enclosing nu variable, the pass
    that confirms its fixed point."""
    innermost = min(trace.components)
    out = {}
    for v in trace.region:
        comps = []
        ctx = ()
        for k in range(trace.l, innermost - 1, -1):
            name = f"{'Y' if k % 2 == 0 else 'X'}{k}"
            if (name, ctx + (1,)) not in trace.snapshots:
                return None  # context not materialized on this solve
            t = 1
            if k in trace.components:
                while v not in trace.snapshots[(name, ctx + (t,))]:
                    t += 1
                comps.append(t)
            else:
                while (name, ctx + (t + 1,)) in trace.snapshots:
                    t += 1
            ctx += (t - 1,)
        out[v] = tuple(comps)
    return out


def test_rank_rule_agrees_with_snapshot_membership(ex1, ex1_view):
    _, tr = solve_odd_fp(ex1_view, ranks=True, snapshots=True)
    oracle = rank_oracle(tr)
    assert oracle is not None
    ranks = extract_ranks(tr)
    assert {v: r.components for v, r in ranks.items()} == oracle


def test_rank_rule_agrees_on_random_games():
    checked = 0
    for _seed, _alpha, g in small_games(120, start_seed=900):
        view = SubgameView.full(g)
        _, tr = solve_odd_fp(view, ranks=True, snapshots=True)
        if not tr.region:
            continue
        oracle = rank_oracle(tr)
        if oracle is None:
            continue
        ranks = extract_ranks(tr)
        assert {v: r.components for v, r in ranks.items()} == oracle
        checked += 1
    assert checked >= 60


def test_solvers_partition_and_complement():
    for _seed, _alpha, g in small_games(120, start_seed=1500):
        view = SubgameView.full(g)
        for use_live in (True, False):
            w_odd, _ = solve_odd_fp(view, use_live=use_live, ranks=False)
            w_even, _ = solve_even_fp(view, use_live=use_live)
            assert w_even == w_odd.complement()


def test_live_free_games_ignore_the_flag():
    for _seed, _alpha, g in small_games(40, alphas=(0,), start_seed=50):
        assert not g.live
        view = SubgameView.full(g)
        fair, _ = solve_odd_fp(view, use_live=True, ranks=False)
        normal, _ = solve_odd_fp(view, use_live=False, ranks=False)
        assert fair == normal


def test_fairness_only_helps_even():
    # dropping the live obligations can only move vertices toward Odd
    for _seed, _alpha, g in small_games(100, start_seed=2200):
        view = SubgameView.full(g)
        fair, _ = solve_odd_fp(view, use_live=True, ranks=False)
        normal, _ = solve_odd_fp(view, use_live=False, ranks=False)
        assert fair.issubset(normal)


def test_g3_flip():
    g = make_g3()
    view = SubgameView.full(g)
    fair, _ = solve_even_fp(view, use_live=True)
    normal, _ = solve_even_fp(view, use_live=False)
    assert set(fair) == {0, 1}
    assert set(normal) == {1}


def level_witnesses(trace, ranks, v, chi):
    """Snapshot iterate that has to contain v's winning successors.

    A vertex of even priority joins its own mu level one round after its
    witnesses, so they sit in the previous iterate; a vertex of odd priority
    rides into the level above together with its witnesses. The context pins
    the outer mu counters one below v's components and the nu counters at 0.
    """
    mu_levels = sorted(trace.components, reverse=True)
    comp = dict(zip(mu_levels, ranks[v].components))
    m = chi if chi % 2 == 0 else chi + 1
    t = comp[m] - 1 if chi % 2 == 0 else comp[m]
    if t == 0:
        return set()
    ctx = tuple(comp[k] - 1 if k in comp else 0 for k in range(trace.l, m, -1))
    return set(trace.snapshots[(f"Y{m}", ctx + (t,))])


def rank_ge(a, b, bound=None):
    """Interleaved rank a >= b, compared on the first `bound` entries."""
    x, y = a.interleaved(), b.interleaved()
    return x[:bound] >= y[:bound]


def rank_gt(a, b, bound=None):
    """Interleaved rank a > b, compared on the first `bound` entries."""
    x, y = a.interleaved(), b.interleaved()
    return x[:bound] > y[:bound]


def test_rank_inequalities_on_ex1(ex1, ex1_view):
    # on this game the plain componentwise comparison holds as well
    _, tr = solve_odd_fp(ex1_view, ranks=True)
    ranks = extract_ranks(tr)
    win = set(tr.region)
    for v in win:
        bound = tr.l + 1 - ex1.priority[v]
        strict = ex1.priority[v] % 2 == 0
        inside = [w for w in ex1.succ[v] if w in win]
        picks = [
            rank_gt(ranks[v], ranks[w], bound) if strict else rank_ge(ranks[v], ranks[w], bound)
            for w in inside
        ]
        assert all(picks) if ex1.owner[v] == EVEN else any(picks)


def test_per_level_witnesses_on_traced_solves():
    checked_games = 0
    checked_vertices = 0
    for _seed, _alpha, g in small_games(360, start_seed=3000):
        view = SubgameView.full(g)
        w_odd, tr = solve_odd_fp(view, ranks=True, snapshots=True)
        if not w_odd:
            continue
        ranks = extract_ranks(tr)
        win = set(w_odd)
        for v in win:
            wset = level_witnesses(tr, ranks, v, g.level[v])
            if g.owner[v] == EVEN:
                ok = all(w in wset for w in g.succ[v])
            else:
                ok = any(w in wset for w in g.succ[v] if w in win)
            assert ok, (v, g.level[v], ranks[v])
            checked_vertices += 1
        checked_games += 1
    assert checked_games >= 200
    assert checked_vertices >= 500


def test_plain_rank_comparison_justifies_a_reentering_vertex():
    # on the first pass of the nu variable X3, vertex 4 enters Y2 through
    # vertex 1, which X3 then drops; its ranks come from the last pass, where
    # it enters Y2 one iterate later, so the plain truncated rank comparison
    # justifies its moves, and the snapshot witnesses do too
    g = build_game(
        (0, 1, 1, 0, 1, 1, 1, 1),
        (4, 3, 1, 3, 1, 2, 2, 4),
        ((4,), (3, 6, 7), (2, 3, 5), (2, 6), (0, 1, 5), (2, 6), (5,), (3, 4, 7)),
        live=((1, 3), (1, 7), (5, 6), (6, 5), (7, 3), (7, 4)),
    )
    view = SubgameView.full(g)
    w_odd, tr = solve_odd_fp(view, ranks=True, snapshots=True)
    assert set(w_odd) == set(range(8))
    ranks = extract_ranks(tr)
    assert ranks[4].interleaved() == (1, 0, 2, 0)
    bound = tr.l + 1 - g.priority[4]
    assert any(rank_ge(ranks[4], ranks[w], bound) for w in g.succ[4])
    for v in range(8):
        wset = level_witnesses(tr, ranks, v, g.priority[v])
        picks = [w in wset for w in g.succ[v]]
        assert all(picks) if g.owner[v] == EVEN else any(picks)


def test_ranks_are_a_progress_measure_and_artifacts_certify():
    # both fixed games got an even-dominated template under of-fp and n-fp:
    # the first while ranks were read on the first pass of each enclosing nu,
    # the second while a later iteration of an outer mu could still reset the
    # inner ranks of a vertex it had already taken in
    fixed = [random_game(12, 3, 127), random_game(12, 7, 7401)]
    games = fixed + [g for _s, _a, g in small_games(1500, max_n=9)]
    measured = 0
    for g in games:
        for algo in SOLVER_TAGS:
            played = _played_game(g, algo)
            w_even, w_odd, template, strategy, tr = solve_instance(played, algo, None, True)
            res = certify_partition(played, w_even, w_odd, strategy, template)
            assert res.certified, (algo, res.detail)
            if algo != "n-fp" or not w_odd:
                continue
            # Jurdzinski's condition on the live-free game, ranks cut below each level
            ranks = extract_ranks(tr)
            win = set(w_odd)
            for v in win:
                bound = tr.l + 1 - played.level[v]
                cmp = rank_gt if played.level[v] % 2 == 0 else rank_ge
                picks = [w in win and cmp(ranks[v], ranks[w], bound) for w in played.succ[v]]
                assert all(picks) if played.owner[v] == EVEN else any(picks), (v, ranks[v])
            measured += 1
    assert measured >= 1000


def test_m_set_matches_all_ones_ranks():
    for _seed, _alpha, g in small_games(100, start_seed=4000):
        view = SubgameView.full(g)
        w_odd, tr = solve_odd_fp(view, ranks=True)
        if not w_odd:
            continue
        ranks = extract_ranks(tr)
        want = {v for v, r in ranks.items() if all(c == 1 for c in r.components)}
        m = m_set(tr)
        assert set(m) == want
        assert m, "nonempty region without an all-ones vertex"
        # an all-ones vertex can only carry an odd priority
        assert all(g.priority[v] % 2 == 1 for v in want)


def test_m_set_requires_odd_side_trace(ex1_view):
    _, tr = solve_even_fp(ex1_view, ranks=True)
    with pytest.raises(ValueError):
        m_set(tr)


def test_ranks_require_recording(ex1_view):
    _, tr = solve_odd_fp(ex1_view, ranks=False)
    with pytest.raises(ValueError):
        extract_ranks(tr)


def fp_trace_cases():
    for _seed, _alpha, g in small_games(200, start_seed=8000):
        yield g
    # (n, priorities, seed), each at alpha 0, 50 and 100; of-fp is exponential
    # in the level count, so seeds are picked for solves well under a second
    for n, p, s in ((20, 5, 2), (40, 8, 3), (60, 6, 1), (120, 8, 3), (150, 5, 2), (200, 6, 3)):
        for alpha in (0, 50, 100):
            yield mutate_liveness(random_game(n, p, s), alpha, s)
    for k in range(1, 13):
        for dual in (False, True):
            for offset in (0, 2, 4):
                yield offset_ladder(k, dual, offset)


def fp_trace_digest(cases):
    h = hashlib.sha256()
    for g in cases:
        view = SubgameView.full(g)
        for solve in (solve_odd_fp, solve_even_fp):
            for use_live in (True, False):
                _, tr = solve(view, use_live=use_live, ranks=True, snapshots=True)
                h.update(repr((tr.region.mask, sorted(tr.counters.items()))).encode())
                for m in sorted(tr.components):
                    h.update(repr(m).encode() + tr.components[m].tobytes())
                h.update(repr(sorted((key, r.mask) for key, r in tr.snapshots.items())).encode())
    return h.hexdigest()


# regions, counters, rank components and every iterate of both fixed-point
# solvers, pinned; a change to this digest changes the solver's traces and
# must be deliberate
FP_TRACE_DIGEST = "69c519840b78b375a01692dd18758a462d01fda3de3929b32d02b7bdb01b1740"


def test_traces_match_golden_digest():
    assert fp_trace_digest(fp_trace_cases()) == FP_TRACE_DIGEST


def operator_calls(monkeypatch, names):
    """Count the calls of the named Kernels methods."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _f=getattr(Kernels, name), _name=name):
            calls[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(Kernels, name, counted)
    return calls


def difference_updates(monkeypatch):
    """Count the calls of fixpoint._count_moves, the count update by difference."""
    calls = [0]

    def counted(*args, _f=fixpoint._count_moves):
        calls[0] += 1
        return _f(*args)
    monkeypatch.setattr(fixpoint, "_count_moves", counted)
    return calls


@pytest.mark.parametrize("game, want", [
    # the counted operands are X1's iterates, two chains whose values
    # alternate; each is two vertices away from the value counted two steps
    # before it, so after one full count per chain (and, on the dual, one full
    # live count) every count is moved by difference: 1999 moves of the edge
    # counts, and as many of the live counts on the dual. lpre_forall runs
    # on the two reset values only, and makes the other two live_count_in
    # calls. Counting each distinct value in full took 2001 count_in and 2003
    # lpre_forall calls
    (lambda: mutate_liveness(offset_ladder(1000, True, 0), 50, 1),
     {"count_in": 2, "live_count_in": 4, "lpre_forall": 2, "moves": 3998}),
    (lambda: offset_ladder(1000, False, 0), {"count_in": 2, "live_count_in": 0, "lpre_forall": 2, "moves": 1999}),
])
def test_each_distinct_iterate_is_counted_once(monkeypatch, game, want):
    view = SubgameView.full(game())
    calls = operator_calls(monkeypatch, ["count_in", "live_count_in", "lpre_forall"])
    moves = difference_updates(monkeypatch)
    solve_odd_fp(view, ranks=True)
    assert {**calls, "moves": moves[0]} == want


def reference_run(
    view: SubgameView,
    side: int,
    use_live: bool,
    want_ranks: bool,
    want_snapshots: bool,
    deadline: Optional[Deadline],
) -> Tuple[Region, FpTrace]:
    """fixpoint._run as it was before the value memo, on masks: parts keyed by version only, every value counted in full."""
    K = Kernels(view, use_live)
    n = K.n
    active = K.active
    l = least_even_upperbound(view.game, view.active)
    evens = list(range(2, l + 1, 2))
    level = K.level
    C = {j: np_to_mask(level == j) & active for j in evens}
    # term j is base[j] | C[j] & cpre(side, Y_j) | rest[j] & op(Y_j, X_{j-1})
    if side == ODD:
        base = {j: np_to_mask(level > j) & active for j in evens}
        rest = {j: np_to_mask(level != j) & active for j in evens}
        op, join = K.npre_of, operator.and_
    else:
        base = dict.fromkeys(evens, 0)
        rest = {j: np_to_mask(level < j) & active for j in evens}
        op, join = K.apre_of, operator.or_

    var: Dict[int, int] = {}
    ver: Dict[int, int] = {k: 0 for k in range(1, l + 1)}
    counters: Dict[int, int] = {k: 0 for k in range(1, l + 1)}
    parts: Dict[int, tuple] = {}  # k -> (ver[k], ...), see part()
    memo: Dict[int, tuple] = {}
    live = K.lpre_forall if side == ODD else K.lpre_exists
    # cpre_of and live of the reset values, the empty set (count_in zero) and the active set (K.deg)
    start = {True: (K.cpre_of(side, np.zeros(n)), live(0)),
             False: (K.cpre_of(side, K.deg), live(active))}

    recorded = evens if side == ODD else list(range(1, l + 1, 2))
    comp: Optional[Dict[int, np.ndarray]] = None
    if want_ranks:
        comp = {m: np.full(n, -1, dtype=np.int32) for m in recorded}
    snaps: Optional[Dict[Tuple[str, Tuple[int, ...]], Region]] = (
        {} if want_snapshots else None
    )

    def part(k: int, reset: Optional[tuple] = None) -> tuple:
        # (ver[k], cpre_of(side, count_in(var[k])), then live(var[k]) for an X
        # or for a Y its own part of term k, which reads no X), once per
        # iterate; reset holds cpre_of and live of a reset value
        hit = parts.get(k)
        if reset is None and hit[0] == ver[k]:
            return hit
        x = var[k]
        p, lx = reset or (K.cpre_of(side, K.count_in(x)), live(x) if k % 2 else None)
        parts[k] = (ver[k], p, lx if k % 2 else base[k] | (C[k] & p))
        return parts[k]

    def term(j: int) -> int:
        key = (ver[j], ver[j - 1])
        hit = memo.get(j)
        if hit is not None and hit[0] == key:
            return hit[1]
        _, py, own = part(j)
        _, px, lx = part(j - 1)
        val = own | (rest[j] & op(py, px, lx))
        memo[j] = (key, val)
        return val

    def eval_level(k: int) -> int:
        mu = (k % 2 == 0) == (side == ODD)
        var[k] = 0 if mu else active
        ver[k] += 1
        part(k, start[mu])
        counters[k] = 0
        while True:
            if deadline is not None:
                deadline.poll()
            if not mu and comp is not None and k + 1 in comp:
                # inner ranks come from the last pass; a vertex that the mu
                # above has taken in keeps those of the pass that took it in
                for m in range(k - 1, 0, -2):
                    comp[m][comp[k + 1] < 0] = -1
            newval = eval_level(k - 1) if k > 1 else reduce(join, map(term, evens))
            moved = newval ^ var[k]
            if mu:
                assert not moved & var[k], "mu iterate shrank"
            else:
                assert not moved & newval, "nu iterate grew"
            it = counters[k] + 1
            if snaps is not None:
                ctx = tuple(counters[kk] for kk in range(l, k, -1))
                snaps[(_var_name(k), ctx + (it,))] = Region(n, newval)
            changed = moved != 0
            if mu and changed and comp is not None:
                comp[k][mask_to_np(newval, n) & (comp[k] < 0)] = it
            var[k] = newval
            ver[k] += 1
            counters[k] = it
            if not changed:
                return newval

    try:
        result = eval_level(l)
    finally:
        del eval_level  # it refers to itself: a cycle that would hold K and the iterates
    region = Region(n, result)
    if comp is not None:
        for m in recorded:
            bad = mask_to_np(result, n) & (comp[m] < 1)
            assert not bad.any(), f"vertex in the winning region lacks a level-{m} rank component"
    trace = FpTrace(
        side=side,
        l=l,
        region=region,
        counters=dict(counters),
        snapshots=snaps,
        components=comp,
    )
    return region, trace


def reuse_cases():
    for _seed, _alpha, g in small_games(150, start_seed=12000):
        yield g
    for k in (1, 2, 5, 9, 30):
        for dual in (False, True):
            for offset in (0, 2, 4):
                for alpha in (0, 50, 100):
                    yield mutate_liveness(offset_ladder(k, dual, offset), alpha, k + offset)
    for n, p, s in ((20, 5, 2), (40, 8, 3), (60, 6, 1), (150, 5, 2)):
        for alpha in (0, 50, 100):
            yield mutate_liveness(random_game(n, p, s), alpha, s)


def test_value_reuse_matches_the_version_keyed_reference(monkeypatch):
    # each value counted in full, the default bound, and every count after
    # the first moved by difference
    bounds = (0, fixpoint._DELTA_MAX, 10**9)
    for g in reuse_cases():
        view = SubgameView.full(g)
        for side, use_live, ranks, snaps in product((ODD, EVEN), (True, False), (True, False), (True, False)):
            want = reference_run(view, side, use_live, ranks, snaps, None)[1]
            for bound in bounds:
                monkeypatch.setattr(fixpoint, "_DELTA_MAX", bound)
                got = _run(view, side, use_live, ranks, snaps, None)[1]
                assert (got.region, got.counters, got.snapshots) == (want.region, want.counters, want.snapshots)
                assert (got.components is None) == (want.components is None)
                for m, c in (want.components or {}).items():
                    assert np.array_equal(got.components[m], c), (side, use_live, m, bound)


def test_value_reuse_matches_the_reference_on_sub_views(monkeypatch):
    # on a view that leaves vertices out, counts also move along edges from
    # inactive sources; both count paths must still give the reference's trace
    rng = random.Random(5)
    checked = 0
    for _seed, _alpha, g in small_games(120, max_n=30, start_seed=13000):
        keep = {v for v in range(g.n) if rng.random() < 0.7}
        while stuck := {v for v in keep if keep.isdisjoint(g.succ[v])}:
            keep -= stuck
        if not keep:
            continue
        view = SubgameView(g, Region.of(g.n, keep))
        for side, use_live in product((ODD, EVEN), (True, False)):
            want = reference_run(view, side, use_live, True, True, None)[1]
            for bound in (0, 10**9):
                monkeypatch.setattr(fixpoint, "_DELTA_MAX", bound)
                got = _run(view, side, use_live, True, True, None)[1]
                assert (got.region, got.counters, got.snapshots) == (want.region, want.counters, want.snapshots)
                for m, c in want.components.items():
                    assert np.array_equal(got.components[m], c), (side, use_live, m, bound)
        checked += 1
    assert checked >= 80


@pytest.mark.parametrize("algo", ["of-fp", "n-fp"])
def test_many_priority_classes_time_out_instead_of_recursing(tmp_path, capsys, algo):
    # 2364 levels, nested as generator frames on a list: the solve runs
    # into its deadline, not into Python's recursion limit
    path = tmp_path / "deep.gm"
    path.write_text(write_game(random_game(3000, 3000, 1)))
    assert cli.main(["solve", str(path), "--algo", algo, "--timeout", "1"]) == 3
    assert capsys.readouterr().err == "timeout\n"


@pytest.mark.parametrize("algo", SOLVER_TAGS)
def test_a_solve_leaves_no_cyclic_garbage(algo):
    # `fairgame solve` runs with the collector off, so a cycle left by a
    # solve would hold its kernels and iterates until some later collection
    g = mutate_liveness(random_game(60, 5, 3), 50, 3)
    solves = [lambda: solve_instance(g, algo, None, True)]
    if algo == "of-fp":
        solves.append(lambda: solve_instance(g, algo, Deadline(0), True))
    was = gc.isenabled()
    try:
        for solve in solves:
            for _ in range(2):  # the first call may make what later ones share
                gc.collect()
                gc.disable()
                try:
                    solve()
                except SolverTimeout:
                    pass
            assert gc.collect() == 0
    finally:
        gc.enable() if was else gc.disable()
