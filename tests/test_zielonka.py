import hashlib
import random
import tracemalloc

import pytest

from fairgame import cli, zielonka
from fairgame.bench import solve_instance
from fairgame.certify import certify_partition
from fairgame.game import EVEN, ODD, Region, SubgameView
from fairgame.fixpoint import solve_even_fp, solve_odd_fp
from fairgame.pgfile import mutate_liveness, random_game, write_game
from fairgame.templates import validate_even_strategy, validate_odd_template
from fairgame.zielonka import (
    _attract,
    _counters,
    _public_reach,
    _rederive,
    _safe_reach,
    safe_reach_even_fair,
    safe_reach_even_full,
    solve_zielonka_fair,
    solve_zielonka_normal,
)

from conftest import build_game, classical, golden_cases, make_g3, offset_ladder, small_games
from test_transformers import dead_end_free_core, ref_apre, restricted, seeded_subsets


def safe_reach_odd(view, S, R):
    """Vertices from which Odd forces reaching R without leaving S."""
    return _public_reach(view, ODD, False, S, R)


# reference attractor straight off the layered definition
def naive_reach(g, player, fair, sset, rset):
    reach = set(rset)
    changed = True
    while changed:
        changed = False
        for v in sset:
            if v in reach:
                continue
            if g.owner[v] == player:
                ok = any(w in reach for w in g.succ[v])
            else:
                ok = all(w in reach for w in g.succ[v])
                if not ok and fair and g.owner[v] == ODD:
                    ok = any(w in reach for w in g.live_succ[v])
            if ok:
                reach.add(v)
                changed = True
    return reach


def corridor_cases(g, seed):
    full = set(range(g.n))
    yield full, {v for v in full if v % 3 == seed % 3} or {0}
    s = {v for v in full if (v * 7 + seed) % 5 != 0} | {0}
    yield s, {v for v in s if (v + seed) % 4 == 0} or {min(s)}


def test_safe_reach_matches_reference():
    checked = 0
    for seed, _alpha, g in small_games(120, start_seed=600):
        view = SubgameView.full(g)
        for sset, rset in corridor_cases(g, seed):
            S, R = Region.of(g.n, sset), Region.of(g.n, rset)
            got = safe_reach_odd(view, S, R)
            assert set(got.region) == naive_reach(g, ODD, False, sset, rset)
            got = safe_reach_even_fair(view, S, R)
            assert set(got.region) == naive_reach(g, EVEN, True, sset, rset)
            checked += 1
    assert checked >= 200


def test_safe_reach_layers_and_edges():
    # template edges strictly decrease the layer rank away from the targets
    for seed, _alpha, g in small_games(60, start_seed=1200):
        view = SubgameView.full(g)
        for sset, rset in corridor_cases(g, seed):
            S, R = Region.of(g.n, sset), Region.of(g.n, rset)
            res = safe_reach_even_fair(view, S, R)
            assert all(res.rank1d[v] == 1 for v in rset)
            for (u, w) in res.template_edges:
                assert u in res.region and w in res.region
                assert u not in rset
                assert res.rank1d[w] < res.rank1d[u]


def ref_exact_reach(h, sset, rset):
    """nu Y. mu X. S & (R | apre(Y, X)) over the reference operators of arena h."""
    y = set(range(h.n))
    while True:
        x = set()
        while (grown := sset & (rset | ref_apre(h, y, x))) != x:
            x = grown
        if x == y:
            return x
        y = x


def test_exact_reach_within_layered_reach():
    checked = 0
    for seed, _alpha, g in small_games(150, start_seed=1800):
        view = SubgameView.full(g)
        for sset, rset in corridor_cases(g, seed):
            S, R = Region.of(g.n, sset), Region.of(g.n, rset)
            exact = safe_reach_even_full(view, S, R)
            layered = safe_reach_even_fair(view, S, R).region
            assert exact.issubset(layered)
            assert set(exact) == ref_exact_reach(g, sset, rset)
            checked += 1
    assert checked >= 200


def test_exact_reach_matches_the_reference_on_sub_views():
    # on a dead-end-free sub-view the reference reads the sub-arena's edges only
    checked = 0
    for seed, _alpha, g in small_games(100, start_seed=1900):
        for keep in seeded_subsets(g, seed, 4)[2:]:
            core = dead_end_free_core(g, keep)
            if not core:
                continue
            view = SubgameView(g, Region.of(g.n, core))
            for sset, rset in corridor_cases(g, seed):
                sset &= core
                rset &= sset
                exact = safe_reach_even_full(view, Region.of(g.n, sset), Region.of(g.n, rset))
                assert set(exact) == ref_exact_reach(restricted(g, core), sset, rset)
                checked += 1
    assert checked >= 100


def test_reach_argument_validation(ex1_view):
    n = ex1_view.n
    with pytest.raises(ValueError):
        safe_reach_odd(ex1_view, Region.of(n, {0}), Region.of(n, {1}))
    with pytest.raises(ValueError):
        safe_reach_even_full(ex1_view, Region.of(n, {0}), Region.of(n, {0, 1}))


def test_recursive_agrees_with_fixpoint():
    for _seed, _alpha, g in small_games(250, start_seed=2600):
        view = SubgameView.full(g)
        art = solve_zielonka_fair(view)
        w_odd, _ = solve_odd_fp(view)
        assert art.win_odd == w_odd
        assert art.win_even == w_odd.complement()


def test_live_free_all_four_agree():
    for _seed, _alpha, g in small_games(120, alphas=(0,), start_seed=3300):
        view = SubgameView.full(g)
        fair = solve_zielonka_fair(view)
        normal = solve_zielonka_normal(view)
        fp_fair, _ = solve_odd_fp(view)
        fp_normal, _ = solve_odd_fp(classical(view))
        assert fair.win_odd == normal.win_odd == fp_fair == fp_normal


def test_normal_mode_ignores_live_edges():
    for _seed, _alpha, g in small_games(80, start_seed=4100):
        view = SubgameView.full(g)
        normal = solve_zielonka_normal(view)
        fp_normal, _ = solve_odd_fp(classical(view))
        assert normal.win_odd == fp_normal


def test_g3_flip():
    view = SubgameView.full(make_g3())
    assert set(solve_zielonka_fair(view).win_even) == {0, 1}
    assert set(solve_zielonka_normal(view).win_even) == {1}


def test_pinned_live_crossing_regression():
    # the odd recursion must re-run after growing its candidate region; an
    # early version returned {1, 5} for Even here instead of {1}
    g = build_game(
        (1, 0, 0, 1, 0, 0, 1, 1, 1),
        (2, 4, 3, 3, 1, 5, 2, 1, 2),
        ((0, 6), (1, 0, 3), (3, 8), (0, 4, 6), (3, 4, 7), (2,), (2, 3, 4), (1, 5), (1, 2, 6)),
        live=((3, 0), (8, 1)),
    )
    view = SubgameView.full(g)
    art = solve_zielonka_fair(view)
    assert set(art.win_even) == {1}
    w_odd, _ = solve_odd_fp(view)
    assert art.win_odd == w_odd


def test_check_mode_is_silent_on_smalls():
    # check=True also asserts, at every level, that the opponent's share is a trap
    for _seed, _alpha, g in small_games(100, start_seed=4700):
        view = SubgameView.full(g)
        for solver in (solve_zielonka_fair, solve_zielonka_normal):
            a = solver(view, extract=True, check=True)
            b = solver(view, extract=True)
            assert a.win_even == b.win_even
            assert a.win_odd == b.win_odd
            assert a.odd_template.edges == b.odd_template.edges
            assert a.even_strategy.choice == b.even_strategy.choice


@pytest.mark.parametrize("seed,alpha", [(2, 0), (5, 0), (1, 50)])
def test_many_priority_classes_solve_without_deep_recursion(tmp_path, capsys, seed, alpha):
    # thousands of distinct priorities, of which only a few classes nest
    game = mutate_liveness(random_game(3000, 3000, seed), alpha, seed)
    played = {"of-zl": game, "n-zl": mutate_liveness(game, 0, 0)}
    for algo, g in played.items():
        w_even, w_odd, template, strategy, _ = solve_instance(g, algo, None, True)
        assert len(w_even) + len(w_odd) == g.n
        res = certify_partition(g, w_even, w_odd, strategy, template)
        assert res.status != "rejected", res.detail
    path = tmp_path / "game.gm"
    path.write_text(write_game(game))
    assert cli.main(["solve", str(path), "--algo", "of-zl"]) == 0
    assert capsys.readouterr().out.startswith("W_Even:")


def chain(n, live=True):
    """Vertex v: priority v + 1, a self-loop and a step to v - 1 (live at odd v)."""
    steps = [(v, v - 1) for v in range(1, n, 2)] if live else ()
    return build_game(
        [v % 2 for v in range(n)], [v + 1 for v in range(n)],
        [[0]] + [[v - 1, v] for v in range(1, n)], live=steps,
    )


def test_chain_of_nested_classes_solves_past_the_recursion_limit(tmp_path, capsys):
    # every vertex is its own present class, nested one frame per vertex
    played = {"of-zl": chain(1200), "n-zl": chain(1200, live=False)}
    for algo, g in played.items():
        w_even, w_odd, template, strategy, _ = solve_instance(g, algo, None, True)
        assert len(w_even) + len(w_odd) == g.n
        res = certify_partition(g, w_even, w_odd, strategy, template)
        assert res.status != "rejected", res.detail
    view = SubgameView.full(chain(300))
    for solver in (solve_zielonka_fair, solve_zielonka_normal):
        a = solver(view, extract=True, check=True)
        b = solver(view, extract=True)
        assert a.win_odd == b.win_odd and a.odd_template.edges == b.odd_template.edges
    path = tmp_path / "chain600.gm"
    path.write_text(write_game(chain(600)))
    assert cli.main(["solve", str(path), "--algo", "of-zl", "--template"]) == 0
    assert capsys.readouterr().out.startswith("W_Even:")


def test_chain_memory_is_linear_in_the_nesting_depth():
    # a frame that kept its own copy of its arena would hold O(n) at each of n depths: 3.8x per doubling
    for solver, live, check in (
        (solve_zielonka_fair, True, False),
        (solve_zielonka_normal, False, False),
        (solve_zielonka_fair, True, True),  # check mode's trap checks too
        (solve_zielonka_normal, False, True),
    ):
        peaks = []
        for n in (400, 800):
            view = SubgameView.full(chain(n, live))
            tracemalloc.start()
            try:
                solver(view, extract=True, check=check)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.5 * peaks[0], (solver.__name__, check, peaks)


def test_extraction_artifacts_validate():
    checked = 0
    for _seed, _alpha, g in small_games(150, max_n=8, start_seed=5300):
        view = SubgameView.full(g)
        art = solve_zielonka_fair(view, extract=True)
        assert validate_odd_template(g, art.odd_template) is None
        assert validate_even_strategy(g, art.even_strategy) is None
        assert art.odd_template.vertices == art.win_odd
        assert art.even_strategy.vertices == art.win_even
        checked += 1
    assert checked >= 150


def test_extraction_matches_plain_solve():
    for _seed, _alpha, g in small_games(60, start_seed=6000):
        view = SubgameView.full(g)
        plain = solve_zielonka_fair(view)
        with_art = solve_zielonka_fair(view, extract=True)
        assert plain.win_even == with_art.win_even
        assert plain.win_odd == with_art.win_odd


def peel_cases():
    # 5-64 vertices, where the peel loop's maintained stamps can differ from
    # the from-scratch ranks that the extracted choices read
    for seed in range(400):
        base = random_game(5 + seed % 60, 2 + seed % 6, seed)
        for alpha in (0, 50):
            yield mutate_liveness(base, alpha, seed)


def artifact_digest(cases, **kw):
    h = hashlib.sha256()
    for g in cases:
        view = SubgameView.full(g)
        for solver in (solve_zielonka_fair, solve_zielonka_normal):
            art = solver(view, extract=True, **kw)
            h.update(repr((
                sorted(art.win_even), sorted(art.win_odd),
                sorted(art.odd_template.edges), sorted(art.even_strategy.choice.items()),
            )).encode())
    return h.hexdigest()


# regions, template edges and strategy choices of the Zielonka core, pinned;
# a change to these digests changes the solver's artifacts and must be deliberate
ARTIFACT_DIGEST = "bc65e204cadc76aa51d9ff3c8e33e3d8a4dfa07472d74b70ff5201703c126776"
PEEL_DIGEST = "43cb4b012f1d00491e560bbfb4fbf4f4082948fd91036ff647de57990c572f3e"


@pytest.mark.parametrize("check", [False, True])
def test_artifacts_match_golden_digest(check):
    assert artifact_digest(golden_cases(), check=check) == ARTIFACT_DIGEST
    assert artifact_digest(peel_cases(), check=check) == PEEL_DIGEST


def test_rederive_matches_reference_after_removals():
    # the peel loop keeps lam's attractor of N alive while opponent
    # attractors are cut from the arena; after each cut it must equal the
    # attractor of what is left, and its stamps must still order derivations
    checked = rederived = 0
    for seed, _alpha, g in small_games(600, max_n=14, start_seed=7100):
        for lam in (EVEN, ODD):
            for use_live in (False, True):
                fair, fair_o = use_live and lam == EVEN, use_live and lam == ODD
                X = set(range(g.n))
                N = {v for v in X if (v + seed) % 3 == 0} or {0}
                reach, rank, _ = _safe_reach(g, lam, fair, X, N)
                top = max(rank.values())
                for step in range(1 + seed % 3):
                    if not X:
                        break
                    seeds = {v for v in X if (5 * v + seed + step) % 7 == 0} or {min(X)}
                    gone = _safe_reach(g, 1 - lam, fair_o, X, seeds)[0]
                    X -= gone
                    N -= gone
                    before = reach - gone
                    over, top = _rederive(g, lam, fair, X, reach, rank, gone, top)
                    assert reach == naive_reach(g, lam, fair, X, N)
                    assert over <= before and before - over <= reach <= before
                    assert set(rank) == reach and all(rank[v] <= top for v in reach)
                    for v in reach:
                        assert (rank[v] == 1) == (v in N)
                        if v in N:
                            continue
                        lower = [w for w in g.succ[v] if w in reach and rank[w] < rank[v]]
                        if g.owner[v] == lam:
                            assert lower, f"player vertex {v} lost its derivation"
                        elif len(lower) < sum(1 for w in g.succ[v] if w in X):
                            assert fair and g.owner[v] == ODD and any(
                                w in reach and rank[w] < rank[v] for w in g.live_succ[v]
                            ), f"opponent vertex {v} lost its derivation"
                    checked += 1
                    rederived += len(over & reach)
    assert checked >= 3000 and rederived >= 150


def test_attractor_work_is_linear_on_ladders(monkeypatch):
    # vertices added by the attractors, plus those the re-derivation
    # over-deletes (each is re-attracted at most once); re-attracting the top
    # class over the whole arena on every peel made this quadratic in k
    added = [0]
    safe_reach, rederive = zielonka._safe_reach, zielonka._rederive

    def counted_safe_reach(game, player, fair, S, R, arena=None, tab=None):
        out = safe_reach(game, player, fair, S, R, arena, tab)
        added[0] += len(out[0]) - len(R)
        return out

    def counted_rederive(*args, **kwargs):
        out = rederive(*args, **kwargs)
        added[0] += len(out[0])
        return out

    monkeypatch.setattr(zielonka, "_safe_reach", counted_safe_reach)
    monkeypatch.setattr(zielonka, "_rederive", counted_rederive)
    for dual in (False, True):
        for algo in ("of-zl", "n-zl"):
            work = {}
            for k in (500, 1000):
                added[0] = 0
                solve_instance(offset_ladder(k, dual, 0), algo, None, True)
                work[k] = added[0]
            assert 0 < work[1000] <= 2.5 * work[500], (dual, algo, work)


def reference_attract(game, player, fair, S, arena, reach, rank, frontier, level):
    """`zielonka._attract` as it was with per-call dict counters, kept verbatim."""
    cnt = {}
    lcnt = {}
    deg = {}
    pulled = False
    while frontier:
        level += 1
        cands = set()
        for w in frontier:
            for v in game.pred[w]:
                if v in S and v not in reach:
                    cnt[v] = cnt.get(v, 0) + 1
                    cands.add(v)
            if fair:
                for v in game.live_pred[w]:
                    if v in S and v not in reach:
                        lcnt[v] = lcnt.get(v, 0) + 1
                        cands.add(v)
        frontier = []
        for v in cands:
            own = game.owner[v]
            if own == player:
                ok = cnt.get(v, 0) >= 1
            else:
                if v not in deg:
                    deg[v] = sum(1 for w in game.succ[v] if w in arena)
                ok = cnt.get(v, 0) == deg[v]
                if not ok and fair and own == ODD and lcnt.get(v, 0) >= 1:
                    ok = True
                    pulled = True
            if ok:
                frontier.append(v)
        for v in frontier:
            reach.add(v)
            rank[v] = level
    return level, pulled


def test_flat_counter_attractor_matches_the_dict_reference():
    # one counter table per game serves every call, as one serves a solve:
    # a call that left an entry dirty would skew the next one
    rng = random.Random(2018)
    calls = rederived = pulled = 0
    for _ in range(400):
        n = rng.randint(1, 16)
        owners = [rng.randint(0, 1) for _ in range(n)]
        succ = [[rng.randrange(n) for _ in range(rng.randint(1, 4))] for _ in range(n)]
        for ws in succ:
            if rng.random() < 0.3:
                ws.append(ws[0])  # a repeated successor
        live = [(v, w) for v in range(n) if owners[v] == ODD for w in set(succ[v]) if rng.random() < 0.4]
        g = build_game(owners, [1] * n, succ, live)
        tab = _counters(n)
        for _ in range(4):
            player = rng.randint(0, 1)
            fair = player == EVEN and rng.random() < 0.8
            arena = {v for v in range(n) if rng.random() < 0.85} or {0}
            S = {v for v in arena if rng.random() < 0.85} or set(arena)
            R = {v for v in S if rng.random() < 0.3} or {min(S)}

            def both(S, reach, rank, frontier, level):
                got = (set(reach), dict(rank))
                got += _attract(g, tab, player, fair, S, arena, *got, list(frontier), level)
                assert tab == _counters(n), "counters not back at rest"
                want = (set(reach), dict(rank))
                want += reference_attract(g, player, fair, S, arena, *want, list(frontier), level)
                assert got == want
                return got

            reach, rank, top, p = both(S, R, {v: 1 for v in R}, list(R), 1)
            pulled += p
            calls += 1
            # a re-derivation, as `_rederive` passes it: some attracted
            # vertices leave, and the frontier is their successors still in
            # reach, with every new layer stamped above top
            over = {v for v in reach - R if rng.random() < 0.5}
            if over:
                reach -= over
                for v in over:
                    del rank[v]
                edge = {w for v in over for w in g.succ[v] if w in reach}
                both(over, reach, rank, sorted(edge, reverse=True), top)
                rederived += 1
    assert calls == 1600 and rederived > 300 and pulled > 50
