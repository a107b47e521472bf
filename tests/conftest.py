import pytest
from hypothesis import settings

from fairgame import cli
from fairgame.game import OddFairGame, SubgameView
from fairgame.pgfile import mutate_liveness, random_game
from fairgame.templates import EvenStrategy

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")

EX1_NAMES = ["1a", "2a", "2b", "2c", "3a", "3b", "4a"]


def build_game(owners, priorities, succ, live=(), names=None):
    return OddFairGame(owners, priorities, succ, live, names=names)


def make_ex1() -> OddFairGame:
    # 0=1a 1=2a 2=2b 3=2c 4=3a 5=3b 6=4a
    return build_game(
        owners=[0, 0, 1, 1, 0, 1, 1],
        priorities=[1, 2, 2, 2, 3, 3, 4],
        succ=[[3, 6], [1], [5, 3], [2], [6], [3], [5, 1]],
        live=[(2, 3), (6, 1)],
        names=EX1_NAMES,
    )


def make_g3() -> OddFairGame:
    # fairness flips vertex 0: its live self-escape forces it into Even's region
    return build_game(
        owners=[1, 0],
        priorities=[1, 2],
        succ=[[0, 1], [1]],
        live=[(0, 1)],
    )


def offset_ladder(k, dual, offset):
    """benchmark/gen.ladder's k-rung ladder (or dual) with priorities raised by offset."""
    n = 2 * k + 1
    owners, pris, succs = [1] + [0] * (n - 1), [1] * n, [[0]] + [None] * (n - 1)
    for i in range(1, k + 1):
        a, t = 2 * i, 2 * i - 1
        owners[t], pris[t] = 1, 2
        succs[a], succs[t] = [t, a], [2 * (i - 1)]
    if dual:
        owners = [1 - o for o in owners]
        pris = [p + 1 for p in pris]
    return build_game(owners, [p + offset for p in pris], succs)


def small_games(count, *, max_n=10, alphas=(0, 30, 50, 80, 100), start_seed=0):
    """Deterministic stream of (seed, alpha, game) smalls for oracle suites."""
    out = []
    seed = start_seed
    while len(out) < count:
        n = 2 + seed % (max_n - 1)
        p = 1 + seed % 5
        base = random_game(n, p, seed)
        alpha = alphas[seed % len(alphas)]
        out.append((seed, alpha, mutate_liveness(base, alpha, seed)))
        seed += 1
    return out


def golden_cases():
    """The smalls and offset ladders whose artifacts the digests pin."""
    for _seed, _alpha, g in small_games(300):
        yield g
    for k in (1, 2, 5, 9):
        for dual in (False, True):
            for offset in (0, 2, 6):
                for alpha in (0, 60):
                    yield mutate_liveness(offset_ladder(k, dual, offset), alpha, k + offset)


@pytest.fixture(scope="session")
def ex1():
    return make_ex1()


@pytest.fixture(scope="session")
def ex1_view(ex1):
    return SubgameView.full(ex1)


@pytest.fixture(scope="session")
def g3():
    return make_g3()


# Even owns both vertices and wins by moving 1 to 0; the loop on 1 is odd-dominated
REDIRECT_GAME = "0 2 0 0;\n1 1 0 1,0;\n"


def redirect_one_even_choice(monkeypatch):
    """Make the CLI's solve entry move the first Even choice that has another
    successor in W_Even to that successor."""
    solve = cli._solve_instance

    def redirected(game, *args):
        w_even, w_odd, template, strategy, trace = solve(game, *args)
        for v in sorted(strategy.choice):
            others = [w for w in game.succ[v] if w != strategy.choice[v] and w in w_even]
            if others:
                strategy = EvenStrategy(strategy.n, strategy.vertices, {**strategy.choice, v: others[0]})
                break
        return w_even, w_odd, template, strategy, trace

    monkeypatch.setattr(cli, "_solve_instance", redirected)
