import pytest

from fairgame import cli
from fairgame.bench import solve_instance
from fairgame.certify import certify_partition
from fairgame.game import EVEN, ODD, Region, SubgameView
from fairgame.fixpoint import solve_even_fp, solve_odd_fp
from fairgame.pgfile import mutate_liveness, random_game, write_game
from fairgame.templates import validate_even_strategy, validate_odd_template
from fairgame.zielonka import (
    _public_reach,
    safe_reach_even_fair,
    safe_reach_even_full,
    solve_zielonka_fair,
    solve_zielonka_normal,
)

from conftest import build_game, make_g3, small_games


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


def test_exact_reach_within_layered_reach():
    checked = 0
    for seed, _alpha, g in small_games(150, start_seed=1800):
        view = SubgameView.full(g)
        for sset, rset in corridor_cases(g, seed):
            S, R = Region.of(g.n, sset), Region.of(g.n, rset)
            exact = safe_reach_even_full(view, S, R)
            layered = safe_reach_even_fair(view, S, R).region
            assert exact.issubset(layered)
            checked += 1
    assert checked >= 200


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
        fp_fair, _ = solve_odd_fp(view, use_live=True)
        fp_normal, _ = solve_odd_fp(view, use_live=False)
        assert fair.win_odd == normal.win_odd == fp_fair == fp_normal


def test_normal_mode_ignores_live_edges():
    for _seed, _alpha, g in small_games(80, start_seed=4100):
        view = SubgameView.full(g)
        normal = solve_zielonka_normal(view)
        fp_normal, _ = solve_odd_fp(view, use_live=False)
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
