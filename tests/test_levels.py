"""Dense priority levels: both solver families run on `OddFairGame.level`.

A game and its relabelling `OddFairGame(owner, level, succ, live)` must solve
the same way, trace for trace, since the solvers read levels only.
"""

import numpy as np
import pytest

from fairgame.cli import main
from fairgame.fixpoint import solve_even_fp, solve_odd_fp
from fairgame.game import OddFairGame, SubgameView
from fairgame.pgfile import write_game
from fairgame.zielonka import solve_zielonka_fair, solve_zielonka_normal

from conftest import offset_ladder, small_games


def corpus():
    games = [g for _seed, _alpha, g in small_games(600)]
    for k in range(1, 7):
        for offset in (2, 4, 6):
            for dual in (False, True):
                games.append(offset_ladder(k, dual, offset))
    return games


def relabelled(g):
    return OddFairGame(g.owner, g.level, g.succ, g.live)


def same_trace(a, b):
    assert (a.side, a.l, a.region, a.counters) == (b.side, b.l, b.region, b.counters)
    assert a.snapshots == b.snapshots
    assert a.components.keys() == b.components.keys()
    for m in a.components:
        assert np.array_equal(a.components[m], b.components[m])


def test_levels_are_dense_and_keep_order_and_parity():
    for g in corpus():
        present = sorted(set(g.priority))
        image = [g.level[g.priority.index(p)] for p in present]
        assert image[0] == (1 if present[0] % 2 else 2)
        for p, lo, hi in zip(present[1:], image, image[1:]):
            assert hi % 2 == p % 2 and lo < hi <= lo + 2
        assert all(g.level[v] == image[present.index(g.priority[v])] for v in range(g.n))
        assert relabelled(g).level == g.level


def test_dense_games_keep_their_priorities(ex1, g3):
    # the goldens are addressed by level, so these must not move
    assert ex1.level == ex1.priority
    assert g3.level == g3.priority


def test_relabelled_game_solves_the_same():
    gapped = 0
    for g in corpus():
        h = relabelled(g)
        gv, hv = SubgameView.full(g), SubgameView.full(h)
        for use_live in (True, False):
            for solve in (solve_odd_fp, solve_even_fp):
                _, a = solve(gv, use_live=use_live, ranks=True, snapshots=True)
                _, b = solve(hv, use_live=use_live, ranks=True, snapshots=True)
                same_trace(a, b)
        for solve in (solve_zielonka_fair, solve_zielonka_normal):
            a, b = solve(gv, extract=True), solve(hv, extract=True)
            assert (a.win_even, a.win_odd) == (b.win_even, b.win_odd)
            assert a.odd_template == b.odd_template
            assert a.even_strategy == b.even_strategy
        gapped += g.level != g.priority
    assert gapped == 37 + 36  # small games with removable gaps, plus every offset ladder


@pytest.mark.parametrize("algo", ["of-zl", "of-fp", "n-zl", "n-fp"])
def test_relabelled_game_prints_the_same_template(tmp_path, capsys, algo):
    gfile, hfile = tmp_path / "g.gm", tmp_path / "h.gm"
    for g in corpus():
        gfile.write_text(write_game(g))
        hfile.write_text(write_game(relabelled(g)))
        outs = []
        for path in (gfile, hfile):
            status = main(["solve", str(path), "--algo", algo, "--template"])
            outs.append((status, capsys.readouterr()))
        assert outs[0] == outs[1]
