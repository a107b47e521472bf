"""The benchmark's generators: ladder winners and instance shapes."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import gen  # noqa: E402
from fairgame.cli import _solve_instance  # noqa: E402
from fairgame.pgfile import mutate_liveness, parse_game  # noqa: E402

ALGOS = ("of-zl", "n-zl", "of-fp", "n-fp")


@pytest.mark.parametrize("offset", [0, 2, 4])
@pytest.mark.parametrize("dual", [False, True])
def test_ladder_winners_under_all_algorithms(dual, offset):
    for k in range(1, 7):
        text = gen.ladder(k, dual=dual, offset=offset)
        mine = checker.read_game(text)
        assert mine.n == 2 * k + 1
        assert min(mine.priority) == 1 + offset + dual
        for alpha in (0, 50, 100):
            game = mutate_liveness(parse_game(text), alpha, k)
            for algo in ALGOS:
                w_even, w_odd, _, _, _ = _solve_instance(game, algo, None, True)
                loser = w_odd if dual else w_even
                assert not loser, (k, alpha, algo)


def test_ladder_shape():
    g = checker.read_game(gen.ladder(2))
    assert g.owner == [1, 1, 0, 1, 0]
    assert g.priority == [1, 2, 1, 2, 1]
    assert g.succ == [[0], [0], [1, 2], [2], [3, 4]]
    d = checker.read_game(gen.ladder(2, dual=True))
    assert d.owner == [0, 0, 1, 0, 1] and d.priority == [2, 3, 2, 3, 2]
    with pytest.raises(ValueError):
        gen.ladder(2, offset=3)


def test_random_game_is_seeded_and_dense():
    a = gen.random_game(500, 6, 11)
    assert a == gen.random_game(500, 6, 11) != gen.random_game(500, 6, 12)
    g = checker.read_game(a)
    assert set(g.priority) == set(range(1, 7))
    assert all(1 <= len(ws) <= 3 for ws in g.succ)


def test_small_games_stay_inside_the_certifier_bound():
    for i in range(2000):
        g = checker.read_game(gen.small_game(gen.sub_seed(5, i)))
        assert 2 <= g.n <= 9
        assert sum(map(len, g.succ)) <= 20
