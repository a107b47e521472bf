import hashlib

import pytest

from fairgame.bench import SOLVER_TAGS, solve_instance
from fairgame.certify import certify_partition
from fairgame.cli import _played_game
from fairgame.game import EVEN, ODD, Region, SubgameView
from fairgame.fixpoint import extract_ranks, m_set, solve_even_fp, solve_odd_fp
from fairgame.pgfile import mutate_liveness, random_game

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
