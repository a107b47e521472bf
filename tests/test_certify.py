import importlib.util
import sys
from pathlib import Path

from fairgame.bench import FAIR_TAGS
from fairgame.game import EVEN, ODD, Region, SubgameView
from fairgame.certify import certify_even_strategy, certify_odd_template, certify_partition
from fairgame.cli import _played_game, _region_line, _solve_instance
from fairgame.fixpoint import extract_ranks, solve_odd_fp
from fairgame.pgfile import mutate_liveness, random_game, write_game
from fairgame.templates import validate_even_strategy, validate_odd_template
from fairgame.templates import EvenStrategy, OddTemplate, build_rank_template, extract_even_strategy
from fairgame.templates import format_strategy, format_template
from fairgame.zielonka import solve_zielonka_fair

from conftest import build_game, make_g3, small_games


def odd_loop(priority):
    return build_game(owners=[1], priorities=[priority], succ=[[0]])


def even_loop(priority):
    return build_game(owners=[0], priorities=[priority], succ=[[0]])


def test_template_accept_and_reject():
    t = OddTemplate(1, Region.full(1), frozenset({(0, 0)}))
    assert certify_odd_template(odd_loop(1), t).certified
    res = certify_odd_template(odd_loop(2), t)
    assert res.status == "rejected"
    assert "even-dominated" in res.detail
    assert res.counterexample == frozenset({(0, 0)})


def test_strategy_accept_and_reject():
    s = EvenStrategy(1, Region.full(1), {0: 0})
    assert certify_even_strategy(even_loop(2), s).certified
    res = certify_even_strategy(even_loop(1), s)
    assert res.status == "rejected"
    assert "odd-dominated" in res.detail
    assert res.counterexample == frozenset({(0, 0)})


def test_certified_results_have_no_counterexample():
    t = OddTemplate(1, Region.full(1), frozenset({(0, 0)}))
    res = certify_odd_template(odd_loop(1), t)
    assert res.certified and res.counterexample is None


def test_invalid_artifacts_are_rejected_up_front():
    t = OddTemplate(1, Region.full(1), frozenset())
    res = certify_odd_template(odd_loop(1), t)
    assert res.status == "rejected" and "invalid template" in res.detail
    s = EvenStrategy(1, Region.full(1), {})
    res = certify_even_strategy(even_loop(2), s)
    assert res.status == "rejected" and "invalid strategy" in res.detail


def test_size_guard():
    # there is no size bound: a 21-edge cycle is decided like a self-loop
    n = 21
    big = OddTemplate(n, Region.full(n), frozenset((v, (v + 1) % n) for v in range(n)))

    def cycle(priority):
        return build_game(owners=[1] * n, priorities=[priority] * n, succ=[[(v + 1) % n] for v in range(n)])

    assert certify_odd_template(cycle(1), big).certified
    res = certify_odd_template(cycle(2), big)
    assert res.status == "rejected" and res.counterexample == big.edges


def test_partition_claim_checks():
    g = build_game(owners=[0, 1], priorities=[2, 1], succ=[[0, 1], [1]])
    s = EvenStrategy(2, Region.of(2, {0}), {0: 0})
    t = OddTemplate(2, Region.of(2, {1}), frozenset({(1, 1)}))

    res = certify_partition(g, Region.full(2), Region.full(2), s, t)
    assert res.status == "rejected" and "not a partition" in res.detail

    # vertex 0 could escape to 1, so {0} is not a trap claim for Even
    res = certify_partition(g, Region.of(2, {0}), Region.of(2, {1}), s, t)
    assert res.certified, res.detail

    swapped = certify_partition(
        g,
        Region.of(2, {1}),
        Region.of(2, {0}),
        EvenStrategy(2, Region.of(2, {1}), {}),
        OddTemplate(2, Region.of(2, {0}), frozenset({(0, 0)})),
    )
    assert swapped.status == "rejected"

    res = certify_partition(g, Region.of(2, {0}), Region.of(2, {1}), EvenStrategy(2, Region.full(2), {0: 0}), t)
    assert res.status == "rejected" and "strategy region" in res.detail


def test_stale_normal_claim_fails_under_fairness():
    # without the live edge Odd keeps vertex 0; with it the old claim cannot
    # even be written down as a template, the live escape leaves the region
    g = make_g3()
    strategy = EvenStrategy(2, Region.of(2, {1}), {1: 1})
    template = OddTemplate(2, Region.of(2, {0}), frozenset({(0, 0)}))
    res = certify_partition(g, Region.of(2, {1}), Region.of(2, {0}), strategy, template)
    assert res.status == "rejected"
    assert "missing a live edge" in res.detail


def test_solver_output_certifies_on_smalls():
    certified = 0
    for seed, _alpha, g in small_games(120, max_n=7, start_seed=8000):
        view = SubgameView.full(g)
        w_odd, tr = solve_odd_fp(view, ranks=True)
        ranks = extract_ranks(tr) if w_odd else {}
        template = build_rank_template(view, w_odd, ranks)
        strategy = extract_even_strategy(view)
        res = certify_partition(g, w_odd.complement(), w_odd, strategy, template)
        assert res.status != "rejected", (seed, res.detail)
        if res.certified:
            certified += 1
    assert certified >= 80


def test_tampered_solver_output_is_caught():
    # moving one vertex across the partition must never stay certified
    caught = 0
    for seed, _alpha, g in small_games(180, max_n=6, start_seed=8600):
        art = solve_zielonka_fair(SubgameView.full(g), extract=True)
        if not art.win_even or not art.win_odd:
            continue
        v = min(art.win_odd)
        w_even = art.win_even | Region.of(g.n, {v})
        w_odd = art.win_odd - Region.of(g.n, {v})
        strategy = EvenStrategy(g.n, w_even, dict(art.even_strategy.choice))
        template = OddTemplate(g.n, w_odd, frozenset(
            (a, b) for (a, b) in art.odd_template.edges if a != v and b != v
        ))
        res = certify_partition(g, w_even, w_odd, strategy, template)
        assert res.status != "certified"
        caught += 1
    assert caught >= 20


def test_partition_checks_iterate_regions_a_fixed_number_of_times(monkeypatch):
    # membership is tested against sets built once per region, so the number
    # of region walks stays constant while the game grows; seed 42 leaves
    # both regions non-empty at both sizes
    calls = []
    walk = Region.__iter__

    def counted(self):
        calls.append(self.n)
        return walk(self)

    counts = {}
    for n in (500, 2000):
        g = random_game(n, 4, 42)
        art = solve_zielonka_fair(SubgameView.full(g), extract=True)
        monkeypatch.setattr(Region, "__iter__", counted)
        res = certify_partition(g, art.win_even, art.win_odd, art.even_strategy, art.odd_template)
        monkeypatch.setattr(Region, "__iter__", walk)
        assert res.certified and art.win_even and art.win_odd, res.detail
        counts[n] = len(calls)
        calls.clear()
    assert counts[500] == counts[2000] <= 8, counts


def _bench_checker():
    """benchmark/checker.py, which shares no code with the program."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "checker.py"
    spec = importlib.util.spec_from_file_location("bench_checker", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _broken_claims(g, w_even, w_odd, s, t):
    """The claim with one Even choice redirected, then with one Odd template
    edge swapped, each inside its region. Each takes the move most likely to
    close a losing cycle: the new successor leads straight back, and the
    moved vertex has a high priority of the losing parity."""
    moves = [
        (v in (g.succ[w] if g.owner[w] == ODD else [s.choice[w]]), g.priority[v] % 2 == ODD,
         g.priority[v], v, w)
        for v in s.choice for w in g.succ[v] if w != s.choice[v] and w in w_even
    ]
    if moves:
        *_, v, w = max(moves)
        yield EvenStrategy(s.n, s.vertices, {**s.choice, v: w}), t
    swaps = [
        ((x, u) in t.edges, g.priority[u] % 2 == EVEN, g.priority[u], u, w, x)
        for (u, w) in t.edges if g.owner[u] == ODD and w not in g.live_succ[u]
        for x in g.succ[u] if x in w_odd and (u, x) not in t.edges
    ]
    if swaps:
        *_, u, w, x = max(swaps)
        yield s, OddTemplate(t.n, t.vertices, (t.edges - {(u, w)}) | {(u, x)})


def test_partition_verdicts_match_the_benchmark_checker_at_scale():
    checker = _bench_checker()
    verdicts = {True: 0, False: 0}
    for i, n in enumerate((200, 250, 300, 500, 1000, 2000, 3000)):
        for alpha in (0, 50):
            game = mutate_liveness(random_game(n, 4 + i % 4, 60 + i), alpha, 60 + i)
            theirs = checker.read_game(write_game(game))
            for algo in ("of-zl", "n-zl"):
                played = _played_game(game, algo)
                w_even, w_odd, t, s, _trace = _solve_instance(played, algo, None, True)
                for strategy, template in ((s, t), *_broken_claims(played, w_even, w_odd, s, t)):
                    certified = certify_partition(played, w_even, w_odd, strategy, template).certified
                    text = "\n".join([
                        _region_line(game, "W_Even", w_even),
                        _region_line(game, "W_Odd", w_odd),
                        format_template(game, template) + format_strategy(game, strategy),
                    ])
                    try:
                        checker.check(theirs, checker.read_output(text), algo in FAIR_TAGS)
                        accepted = True
                    except checker.CheckFailure:
                        accepted = False
                    assert certified == accepted, (n, alpha, algo)
                    verdicts[accepted] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 15, verdicts


# -- reference: a set-based search over every subset of the region --


def _ref_strongly_connected(nodes, edges):
    adj, radj = {}, {}
    for (u, w) in edges:
        adj.setdefault(u, []).append(w)
        radj.setdefault(w, []).append(u)
    start = next(iter(nodes))
    for graph in (adj, radj):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.get(v, ()):
                if w in nodes and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != nodes:
            return False
    return True


def _ref_edges_odd(game, out_t, members):
    edges = []
    for v in members:
        if game.owner[v] == ODD:
            if not all(w in members for w in out_t[v]):
                return None
            edges.extend((v, w) for w in out_t[v])
        else:
            inside = [w for w in out_t[v] if w in members]
            if not inside:
                return None
            edges.extend((v, w) for w in inside)
    return edges


def _ref_edges_even(game, s, members):
    edges = []
    for v in members:
        if game.owner[v] == EVEN:
            w = s.choice[v]
            if w not in members:
                return None
            edges.append((v, w))
        else:
            if not all(w in members for w in game.live_succ[v]):
                return None
            inside = [w for w in game.succ[v] if w in s.vertices and w in members]
            if not inside:
                return None
            edges.extend((v, w) for w in set(inside))
    return edges


def _ref_search(game, verts, edges_of, parity):
    m = len(verts)
    for mask in range(1, 1 << m):
        members = {verts[i] for i in range(m) if (mask >> i) & 1}
        edges = edges_of(members)
        if edges is None or not _ref_strongly_connected(members, edges):
            continue
        if max(game.priority[v] for v in members) % 2 == parity:
            return ", ".join(game.label(v) for v in sorted(members)), frozenset(edges)
    return None


def _ref_template(game, t):
    problem = validate_odd_template(game, t)
    if problem is not None:
        return ("rejected", f"invalid template: {problem}", None)
    verts = sorted(t.vertices)
    out_t = {v: [] for v in verts}
    for (u, w) in t.edges:
        out_t[u].append(w)
    found = _ref_search(game, verts, lambda members: _ref_edges_odd(game, out_t, members), EVEN)
    if found is not None:
        return ("rejected", "a compliant play can stay on an even-dominated cycle through " + found[0], found[1])
    return ("certified", "all compliant cycles are odd-dominated", None)


def _ref_strategy(game, s):
    problem = validate_even_strategy(game, s)
    if problem is not None:
        return ("rejected", f"invalid strategy: {problem}", None)
    found = _ref_search(game, sorted(s.vertices), lambda members: _ref_edges_even(game, s, members), ODD)
    if found is not None:
        return (
            "rejected",
            "a fair play against the strategy can stay on an odd-dominated cycle through " + found[0],
            found[1],
        )
    return ("certified", "all fair plays against the strategy are even-dominated", None)


def _ref_partition(game, w_even, w_odd, s, t):
    if (w_even | w_odd) != Region.full(game.n) or not w_even.isdisjoint(w_odd):
        return ("rejected", "not a partition", None)
    for v in w_even:
        succs = set(game.succ[v])
        if game.owner[v] == ODD and not succs <= set(w_even):
            return ("rejected", f"not a trap: odd vertex {v} can leave w_even", None)
        if game.owner[v] == EVEN and not succs & set(w_even):
            return ("rejected", f"not a trap: even vertex {v} is forced out of w_even", None)
    for v in w_odd:
        succs = set(game.succ[v])
        if game.owner[v] == EVEN and not succs <= set(w_odd):
            return ("rejected", f"not a trap: even vertex {v} can leave w_odd", None)
        if game.owner[v] == ODD and not succs & set(w_odd):
            return ("rejected", f"not a trap: odd vertex {v} is forced out of w_odd", None)
    if s.vertices != w_even:
        return ("rejected", "strategy region does not match w_even", None)
    if t.vertices != w_odd:
        return ("rejected", "template region does not match w_odd", None)
    for res in (
        _ref_strategy(game, s) if w_even else None,
        _ref_template(game, t) if w_odd else None,
    ):
        if res is not None and res[0] != "certified":
            return res
    return ("certified", "both regions certified", None)


def _claims(g):
    """Solver claims on g plus one redirected, one swapped and one moved variant."""
    view = SubgameView.full(g)
    art = solve_zielonka_fair(view, extract=True)
    w_even, w_odd, s, t = art.win_even, art.win_odd, art.even_strategy, art.odd_template
    yield w_even, w_odd, s, t
    fp_odd, tr = solve_odd_fp(view, ranks=True)
    yield w_even, w_odd, s, build_rank_template(view, fp_odd, extract_ranks(tr) if fp_odd else {})
    for v in sorted(s.choice):
        alts = sorted((w for w in g.succ[v] if w != s.choice[v]), key=lambda w: (w not in w_even, w))
        if alts:
            yield w_even, w_odd, EvenStrategy(g.n, w_even, {**s.choice, v: alts[0]}), t
            break
    for (u, w) in sorted(t.edges):
        alts = [x for x in g.succ[u] if x in w_odd and (u, x) not in t.edges]
        if g.owner[u] == ODD and alts:
            edges = (t.edges - {(u, w)}) | {(u, alts[0])}
            yield w_even, w_odd, s, OddTemplate(g.n, w_odd, frozenset(edges))
            break
    if w_odd:
        v = min(w_odd)
        moved_even = w_even | Region.of(g.n, {v})
        moved_odd = w_odd - Region.of(g.n, {v})
        yield moved_even, moved_odd, EvenStrategy(g.n, moved_even, dict(s.choice)), OddTemplate(
            g.n, moved_odd, frozenset((a, b) for (a, b) in t.edges if v not in (a, b))
        )


_REJECTION = {
    "strategy": "a fair play against the strategy can stay on an odd-dominated cycle through ",
    "template": "a compliant play can stay on an even-dominated cycle through ",
}


def _check_verdict(g, s, t, got, ref):
    """got equals the reference result, except that a search rejection may
    name another bad set; that set must then be a genuine one."""
    if ref[2] is None:
        assert (got.status, got.detail, got.counterexample) == ref
        return
    side = next(k for k, prefix in _REJECTION.items() if ref[1].startswith(prefix))
    members = {u for (u, _w) in got.counterexample or ()}
    assert got.status == ref[0] and members, (got, ref)
    assert got.detail == _REJECTION[side] + ", ".join(g.label(v) for v in sorted(members))
    if side == "strategy":
        edges, parity = _ref_edges_even(g, s, members), ODD
    else:
        out_t = {v: [w for (u, w) in t.edges if u == v] for v in members}
        edges, parity = _ref_edges_odd(g, out_t, members), EVEN
    assert edges is not None and frozenset(edges) == got.counterexample
    assert _ref_strongly_connected(members, edges)
    assert max(g.priority[v] for v in members) % 2 == parity


def _differential(games):
    found = {"strategy": 0, "template": 0}
    for _seed, _alpha, g in games:
        for w_even, w_odd, s, t in _claims(g):
            ref = _ref_strategy(g, s)
            _check_verdict(g, s, t, certify_even_strategy(g, s), ref)
            found["strategy"] += ref[2] is not None
            ref = _ref_template(g, t)
            _check_verdict(g, s, t, certify_odd_template(g, t), ref)
            found["template"] += ref[2] is not None
            ref = _ref_partition(g, w_even, w_odd, s, t)
            _check_verdict(g, s, t, certify_partition(g, w_even, w_odd, s, t), ref)
    return found


def _over_20_edges(g):
    def strategy_edges(s):
        return len(s.choice) + sum(len(set(g.succ[v])) for v in s.vertices if g.owner[v] == ODD)

    return any(len(t.edges) > 20 or strategy_edges(s) > 20 for _w_even, _w_odd, s, t in _claims(g))


def test_scc_search_matches_set_based_reference():
    found = _differential(small_games(600, max_n=8, start_seed=9100))
    assert found["strategy"] >= 100 and found["template"] >= 30, found


def test_scc_search_matches_reference_over_20_edges():
    # denser 6-10 vertex games; keep those with a claim over 20 edges
    games = []
    for seed in range(9700, 10300):
        base = random_game(6 + seed % 5, 1 + seed % 5, seed, min_degree=2)
        g = mutate_liveness(base, (0, 30, 50, 80, 100)[seed % 5], seed)
        if _over_20_edges(g):
            games.append((seed, None, g))
    assert len(games) >= 40
    found = _differential(games)
    assert found["strategy"] >= 5, found
