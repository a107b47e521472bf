"""The benchmark's checker agrees with the program's exhaustive certifier.

On a seeded stream of small games inside the certifier's edge bound, the
checker must accept exactly what `certify_partition` accepts: the solvers'
own artifacts, deliberately broken ones (a redirected strategy edge, a
swapped template edge), and classical `n-zl` artifacts read as fair ones.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import gen  # noqa: E402
from fairgame.certify import certify_partition  # noqa: E402
from fairgame.cli import _region_line, _solve_instance  # noqa: E402
from fairgame.game import EVEN, ODD, OddFairGame  # noqa: E402
from fairgame.pgfile import mutate_liveness, parse_game, write_game  # noqa: E402
from fairgame.templates import EvenStrategy, OddTemplate, format_strategy, format_template  # noqa: E402

ALGOS = ("of-zl", "n-zl", "of-fp", "n-fp")


def strip_live(game):
    return OddFairGame(game.owner, game.original_priority, game.succ, (), game.names, game.original_ids)


def cli_text(game, w_even, w_odd, template, strategy):
    return "\n".join([
        _region_line(game, "W_Even", w_even),
        _region_line(game, "W_Odd", w_odd),
        format_template(game, template) + format_strategy(game, strategy),
    ])


def redirect_strategy(game, strategy):
    """Move one Even choice to another successor, or None if no vertex has one."""
    for v in sorted(strategy.choice):
        others = [w for w in game.succ[v] if w != strategy.choice[v]]
        if others:
            return EvenStrategy(strategy.n, strategy.vertices, {**strategy.choice, v: others[0]})
    return None


def swap_template_edge(game, template):
    """Replace one Odd template edge by another edge of the same vertex."""
    for (u, w) in sorted(template.edges):
        if game.owner[u] != ODD:
            continue
        others = [x for x in game.succ[u] if (u, x) not in template.edges]
        if others:
            edges = (template.edges - {(u, w)}) | {(u, others[0])}
            return OddTemplate(template.n, template.vertices, frozenset(edges))
    return None


def cases(count=160):
    for i in range(count):
        s = gen.sub_seed(2024, i)
        game = mutate_liveness(parse_game(gen.small_game(s)), (37 * i) % 101, s % 997)
        for algo in ALGOS:
            w_even, w_odd, template, strategy, _ = _solve_instance(game, algo, None, True)
            fair = algo.startswith("of-")
            yield f"{i}/{algo}", game, fair, (w_even, w_odd, template, strategy)
            broken = redirect_strategy(game, strategy)
            if broken is not None:
                yield f"{i}/{algo}/strategy", game, fair, (w_even, w_odd, template, broken)
            broken = swap_template_edge(game, template)
            if broken is not None:
                yield f"{i}/{algo}/template", game, fair, (w_even, w_odd, broken, strategy)
            if algo == "n-zl":
                yield f"{i}/{algo}/fair", game, True, (w_even, w_odd, template, strategy)


def test_checker_agrees_with_exhaustive_certifier():
    verdicts = {True: 0, False: 0}
    disagreements = []
    for name, game, fair, (w_even, w_odd, template, strategy) in cases():
        oracle = certify_partition(game if fair else strip_live(game), w_even, w_odd, strategy, template)
        if oracle.status == "too_large":
            continue
        try:
            checker.check(checker.read_game(write_game(game)),
                          checker.read_output(cli_text(game, w_even, w_odd, template, strategy)), fair)
            accepted = True
        except checker.CheckFailure as exc:
            accepted, why = False, str(exc)
        if accepted != oracle.certified:
            disagreements.append((name, oracle.detail, None if accepted else why))
        verdicts[accepted] += 1
    assert not disagreements, disagreements[:5]
    assert verdicts[True] > 300 and verdicts[False] > 100, verdicts


def test_checker_rejects_known_faults():
    game = parse_game("0 5 1 1;\n1 3 1 0,1;\nlive 0 1;\nlive 1 0;\nlive 1 1;\n")
    w_even, w_odd, template, strategy, _ = _solve_instance(game, "n-zl", None, True)
    text = cli_text(game, w_even, w_odd, template, strategy)
    mine = checker.read_game(write_game(game))
    try:
        checker.check(mine, checker.read_output(text), fair=False)
    except checker.CheckFailure as exc:
        assert exc.check == "template-shape"
    else:
        raise AssertionError("n-zl template closed under live edges was accepted")
    checker.check(mine, checker.read_output(text), fair=True)


def test_bad_recurrent_set_finds_nested_cycle():
    # 0 -> 1 -> 0 has top priority 3 (odd); inside it, 1 -> 1 has priority 2.
    moves = {0: [1], 1: [0, 1]}
    found = checker.bad_recurrent_set([0, 1], moves, {0: [], 1: []}, [3, 2], EVEN)
    assert found == [1]
    assert checker.bad_recurrent_set([0, 1], moves, {0: [], 1: [0]}, [3, 2], EVEN) is None
