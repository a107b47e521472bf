import hashlib
import random

import pytest

from fairgame import templates
from fairgame.game import EVEN, ODD, OddFairGame, Region, SubgameView
from fairgame.fixpoint import extract_ranks, solve_even_fp, solve_odd_fp
from fairgame.certify import certify_partition
from fairgame.templates import (
    EvenStrategy,
    OddTemplate,
    _scc_components,
    build_rank_template,
    close_live_cycles,
    extract_even_strategy,
    format_strategy,
    format_template,
    validate_even_strategy,
    validate_odd_template,
)
from fairgame.zielonka import solve_zielonka_fair

from conftest import build_game, classical, golden_cases, small_games

EX1_TEMPLATE_EDGES = {
    (0, 3), (0, 6), (2, 3), (2, 5), (3, 2), (4, 6), (5, 3), (6, 5),
}


def rank_artifacts(g):
    view = SubgameView.full(g)
    w_odd, tr = solve_odd_fp(view, ranks=True)
    ranks = extract_ranks(tr) if w_odd else {}
    template = build_rank_template(view, w_odd, ranks)
    strategy = extract_even_strategy(view)
    return w_odd.complement(), w_odd, template, strategy


def test_golden_rank_template(ex1, ex1_view):
    w_odd, tr = solve_odd_fp(ex1_view, ranks=True)
    t = build_rank_template(ex1_view, w_odd, extract_ranks(tr))
    assert t.vertices == w_odd
    assert set(t.edges) == EX1_TEMPLATE_EDGES
    assert validate_odd_template(ex1, t) is None
    # live edge of 2b points back into the cycle, live edge of 4a does not
    assert t.targets(2) == (3, 5)
    assert t.targets(6) == (5,)


def test_golden_even_strategy(ex1, ex1_view):
    s = extract_even_strategy(ex1_view)
    assert set(s.vertices) == {1}
    assert s.choice == {1: 1}
    assert validate_even_strategy(ex1, s) is None


def test_golden_both_routes_certify(ex1, ex1_view):
    w_even, w_odd, template, strategy = rank_artifacts(ex1)
    assert certify_partition(ex1, w_even, w_odd, strategy, template).certified
    art = solve_zielonka_fair(ex1_view, extract=True)
    assert certify_partition(
        ex1, art.win_even, art.win_odd, art.even_strategy, art.odd_template
    ).certified


def test_close_live_cycles_fixpoint():
    # pulling (0, 2) puts 2 on a cycle, whose live edge leaves the region
    g = build_game(
        owners=[1, 1, 1, 1],
        priorities=[1, 1, 1, 1],
        succ=[[1, 2], [0], [0, 3], [3]],
        live=[(0, 2), (2, 3)],
    )
    region = Region.of(4, {0, 1, 2})
    closed = close_live_cycles(g, region, {(0, 1), (1, 0), (2, 0)})
    assert set(closed) == {(0, 1), (1, 0), (2, 0), (0, 2)}


def reference_sccs(vertices, adj):
    """Textbook recursive Tarjan (SIAM J. Comput. 1972) over the same inputs."""
    index, low, on_stack, stack, comps = {}, {}, set(), [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in adj.get(v, ()):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            comps.append(comp)

    for v in vertices:
        if v not in index:
            visit(v)
    return comps


def test_scc_components_match_recursive_tarjan():
    # components, their order and their member order feed the certifier's witness
    rng = random.Random(1972)
    for _ in range(2000):
        n = rng.randint(1, 30)
        adj = {}
        for v in range(n):
            if rng.random() < 0.1:
                continue  # a vertex with no adj entry
            adj[v] = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.2:
                adj[v].append(v)
        roots = list(range(n))
        rng.shuffle(roots)
        assert _scc_components(roots, adj) == reference_sccs(roots, adj)


def test_template_validator_rejections(ex1, ex1_view):
    w_odd, tr = solve_odd_fp(ex1_view, ranks=True)
    good = build_rank_template(ex1_view, w_odd, extract_ranks(tr))

    bad = OddTemplate(good.n, good.vertices, good.edges | {(0, 5)})
    assert "not a game edge" in validate_odd_template(ex1, bad)

    bad = OddTemplate(good.n, good.vertices, good.edges - {(0, 3)})
    assert "keep all its edges" in validate_odd_template(ex1, bad)

    bad = OddTemplate(good.n, good.vertices, good.edges - {(2, 3)})
    assert "missing a live edge" in validate_odd_template(ex1, bad)

    loop = build_game(owners=[1], priorities=[1], succ=[[0]])
    assert validate_odd_template(loop, OddTemplate(1, Region.full(1), frozenset({(0, 0)}))) is None
    naked = OddTemplate(1, Region.full(1), frozenset())
    assert "exactly one edge" in validate_odd_template(loop, naked)

    half = build_game(owners=[0, 1], priorities=[1, 1], succ=[[0, 1], [1]])
    out = OddTemplate(2, Region.of(2, {0}), frozenset({(0, 0)}))
    assert "leaving the region" in validate_odd_template(half, out)


def test_strategy_validator_rejections():
    g = build_game(owners=[0, 1], priorities=[2, 1], succ=[[0, 1], [0, 1]])
    full = Region.full(2)
    assert "no chosen edge" in validate_even_strategy(g, EvenStrategy(2, full, {}))
    assert "leaves the region" in validate_even_strategy(
        g, EvenStrategy(2, Region.of(2, {0}), {0: 1})
    )
    assert "can leave" in validate_even_strategy(g, EvenStrategy(2, Region.of(2, {1}), {}))
    assert "outside the even region" in validate_even_strategy(
        g, EvenStrategy(2, full, {0: 0, 1: 1})
    )
    ok = EvenStrategy(2, full, {0: 0})
    assert validate_even_strategy(g, ok) is None


def test_even_strategy_needs_recursion_not_ranks():
    # two successors of vertex 7 tie on every rank readout; only the move to 6
    # survives certification, so the extraction cannot base the choice on ranks
    g = build_game(
        (0, 1, 0, 1, 1, 0, 1, 0),
        (4, 3, 5, 3, 4, 2, 3, 2),
        ((5, 6), (7,), (2, 3, 6), (2, 3), (2,), (2, 4, 5), (0,), (1, 4, 6)),
        live=((1, 7), (3, 2), (3, 3), (4, 2), (6, 0)),
    )
    view = SubgameView.full(g)
    w_even, _ = solve_even_fp(view)
    assert w_even == Region.full(8)
    s = extract_even_strategy(view)
    assert validate_even_strategy(g, s) is None
    assert s.choice[7] != 1
    w_odd, tr = solve_odd_fp(view, ranks=True)
    template = build_rank_template(view, w_odd, {})
    res = certify_partition(g, w_even, w_odd, s, template)
    assert res.certified, res.detail


def test_even_strategy_regression_sweep():
    # the second of the two instances that went wrong under min-rank choices
    for seed, _alpha, g in small_games(1, max_n=8, start_seed=4044):
        w_even, w_odd, template, strategy = rank_artifacts(g)
        res = certify_partition(g, w_even, w_odd, strategy, template)
        assert res.certified, (seed, res.detail)


def test_even_strategy_trace_reuse(ex1, ex1_view):
    _, tr = solve_even_fp(ex1_view)
    s = extract_even_strategy(ex1_view, trace=tr)
    assert set(s.vertices) == {1}
    with pytest.raises(ValueError):
        extract_even_strategy(ex1_view, region=Region.of(ex1.n, {0}))


@pytest.mark.parametrize("fair", [True, False])
def test_even_strategy_from_odd_trace_matches_solving(ex1, g3, fair):
    games = [ex1, g3] + [g for _seed, _alpha, g in small_games(60, start_seed=300)]
    for g in games:
        view = SubgameView.full(g) if fair else classical(SubgameView.full(g))
        w_odd, odd_tr = solve_odd_fp(view)
        solved = extract_even_strategy(view)
        reused = extract_even_strategy(view, trace=odd_tr)
        assert (reused.vertices, reused.choice) == (solved.vertices, solved.choice)
        assert reused.vertices == w_odd.complement()
        _, even_tr = solve_even_fp(view)
        from_even = extract_even_strategy(view, trace=even_tr)
        assert (from_even.vertices, from_even.choice) == (solved.vertices, solved.choice)
        # on a proper sub-view the Even region is the view minus Odd's, not a complement
        if solved.vertices and w_odd:
            sub = SubgameView(view.game, solved.vertices)
            _, sub_tr = solve_odd_fp(sub)
            on_sub = extract_even_strategy(sub, trace=sub_tr)
            assert (on_sub.vertices, on_sub.choice) == (solved.vertices, solved.choice)
        flip = Region.of(g.n, {0})
        wrong = solved.vertices - flip if 0 in solved.vertices else solved.vertices | flip
        with pytest.raises(ValueError):
            extract_even_strategy(view, region=wrong, trace=odd_tr)


def test_format_round_shapes(ex1, ex1_view):
    _, w_odd, template, strategy = rank_artifacts(ex1)
    text = format_template(ex1, template)
    lines = text.splitlines()
    assert lines[0] == "template 6;"
    assert lines[1] == "edge 0 3;"
    assert len(lines) == 1 + len(template.edges)
    assert text.endswith(";\n")
    stext = format_strategy(ex1, strategy)
    assert stext == "strategy 1;\nedge 1 1;\n"


def test_both_routes_certify_on_smalls():
    certified = 0
    for seed, _alpha, g in small_games(150, max_n=8, start_seed=7100):
        w_even, w_odd, template, strategy = rank_artifacts(g)
        res = certify_partition(g, w_even, w_odd, strategy, template)
        assert res.status != "rejected", (seed, res.detail)
        art = solve_zielonka_fair(SubgameView.full(g), extract=True)
        assert art.win_odd == w_odd
        res2 = certify_partition(
            g, art.win_even, art.win_odd, art.even_strategy, art.odd_template
        )
        assert res2.status != "rejected", (seed, res2.detail)
        if res.certified and res2.certified:
            certified += 1
    assert certified >= 100


def rank_route_digest(fair):
    h = hashlib.sha256()
    for g in golden_cases():
        # the twin lists each successor list backwards, so that a tie between
        # ranks no longer falls to the first successor listed
        twin = OddFairGame(g.owner, g.original_priority, [ws[::-1] for ws in g.succ], g.live)
        for game in (g, twin):
            view = SubgameView.full(game)
            # the classical reading solves on the game without live edges and,
            # like solve_instance, builds its template on the given game
            played = view if fair else classical(view)
            w_odd, tr = solve_odd_fp(played)
            template = build_rank_template(view, w_odd, extract_ranks(tr))
            strategy = extract_even_strategy(played, trace=tr)
            h.update(repr((
                sorted(strategy.vertices), sorted(w_odd),
                sorted(template.edges), sorted(strategy.choice.items()),
            )).encode())
    return h.hexdigest()


# regions, rank-template edges and Even choices of the fixed-point route,
# pinned like the Zielonka core's ARTIFACT_DIGEST
RANK_ROUTE_DIGEST = {
    True: "dd86bcd8ad7127403c7e6a5b626a72c32eda9729363676dee5d9461000d0358b",
    False: "d666500a7785b5c367dbd7991cf6e0535836c1c77351c4d995e0736794d24534",
}


@pytest.mark.parametrize("fair", [True, False])
def test_rank_route_matches_golden_digest(fair):
    assert rank_route_digest(fair) == RANK_ROUTE_DIGEST[fair]


def reference_close_live_cycles(game, vertices, edges):
    """`close_live_cycles` as it was, with an SCC pass on every region."""
    vset = set(vertices)
    eset = set(edges)
    while True:
        new = {
            (v, w)
            for v in templates._cycle_vertices(vset, eset)
            if game.owner[v] == ODD
            for w in game.live_succ[v]
            if w in vset
        } - eset
        if not new:
            return frozenset(eset)
        eset |= new


def test_close_live_cycles_runs_no_scc_pass_without_live_edges(monkeypatch):
    calls = [0]
    scc = templates._scc_components

    def counted(*args):
        calls[0] += 1
        return scc(*args)

    monkeypatch.setattr(templates, "_scc_components", counted)
    skipped = closed = 0
    for seed, _alpha, g in small_games(300, max_n=12, start_seed=4100):
        rng = random.Random(seed)
        region = Region(g.n, rng.getrandbits(g.n))
        edges = {(v, w) for v in region for w in g.succ[v] if w in region and rng.random() < 0.7}
        calls[0] = 0
        got = close_live_cycles(g, region, iter(edges))
        if any(g.live_succ[v] for v in region):
            closed += calls[0] > 0
            assert got == reference_close_live_cycles(g, region, edges)
        else:
            assert got == frozenset(edges) and calls[0] == 0
            skipped += 1
    assert skipped > 50 and closed > 100
