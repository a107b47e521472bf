import gc
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairgame.game import (
    EVEN,
    ODD,
    Deadline,
    OddFairGame,
    SolverTimeout,
    Region,
    SubgameView,
    least_even_upperbound,
    priority_class,
    validate,
)
from fairgame import game as game_module
from fairgame.pgfile import ParseError, mutate_liveness, parse_game, random_game

from conftest import build_game, small_games


def test_priority_shift_applied_only_when_zero_present():
    g = build_game([0, 1], [0, 3], [[1], [0]])
    assert g.shift == 2
    assert g.priority == (2, 5)
    assert g.original_priority == (0, 3)

    h = build_game([0, 1], [1, 3], [[1], [0]])
    assert h.shift == 0
    assert h.priority == (1, 3)


def test_predecessors_are_exact_transpose():
    g = build_game([0, 1, 0], [1, 2, 3], [[1, 2], [0], [2, 0]])
    edges = {(v, w) for v in range(3) for w in g.succ[v]}
    back = {(v, w) for w in range(3) for v in g.pred[w]}
    assert edges == back


def test_live_edges_grouped_by_source():
    g = build_game([1, 0], [1, 2], [[0, 1], [1]], live=[(0, 1), (0, 0)])
    assert g.live_succ[0] == [0, 1]
    assert g.live_succ[1] == []
    assert set(g.live_pred[1]) == {0}


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        build_game([0], [1], [[5]])
    with pytest.raises(ValueError):
        build_game([2], [1], [[0]])
    with pytest.raises(ValueError):
        build_game([0], [-1], [[0]])


@pytest.mark.parametrize(
    "owners, priorities, succ, message",
    [
        ([0, 1], [1], [[1], [0]], "owners, priorities, successors must have equal length"),
        ([0, 1], [1, -1], [[1], [0]], "priorities must be non-negative"),
        ([0, 2], [1, 2], [[1], [0]], "owner must be 0 (Even) or 1 (Odd)"),
        ([0, 1], [1, 2], [[1], [0, 2]], "successor 2 of vertex 1 out of range"),
        ([0, 1], [1, 2], [[1], [-1, 0]], "successor -1 of vertex 1 out of range"),
        ([0, 1], [1, 2], [[0, -2], [5]], "successor -2 of vertex 0 out of range"),
        ([0, 1], [1, 2], [[7], [-1]], "successor 7 of vertex 0 out of range"),
    ],
)
def test_constructor_names_the_first_violated_check(owners, priorities, succ, message):
    with pytest.raises(ValueError) as exc:
        OddFairGame(owners, priorities, succ)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "succ, names, message",
    [
        ([[0], [1]], [None, 'a"b'], "name of vertex 1 contains '\"'"),
        *(([[0], [1]], ["ok", f"a{ch}b"], f"name of vertex 1 contains {ch!r}")
          for ch in "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"),
        ([[0], [1]], ["\u2028", '"'], "name of vertex 0 contains '\\u2028'"),
        # the name check comes after the four checks above
        ([[0], [2]], [None, 'a"b'], "successor 2 of vertex 1 out of range"),
    ],
)
def test_constructor_rejects_names_a_game_file_cannot_hold(succ, names, message):
    # parse_game splits its text with str.splitlines, so each of these would
    # make write_game's output unreadable
    with pytest.raises(ValueError) as exc:
        OddFairGame([0, 1], [1, 2], succ, names=names)
    assert str(exc.value) == message


def test_rejected_name_characters_are_the_quote_and_every_line_break():
    breaks = {ch for ch in map(chr, range(0x110000)) if len(f"a{ch}b".splitlines()) > 1}
    assert game_module._UNWRITABLE == breaks | {'"'}


def test_a_deadline_of_none_never_expires():
    Deadline(None).poll()
    with pytest.raises(SolverTimeout):
        Deadline(-1.0).poll()


@pytest.mark.parametrize("enabled", [True, False])
def test_building_a_game_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    states = []
    levels = game_module._dense_levels
    monkeypatch.setattr(game_module, "_dense_levels", lambda p: states.append(gc.isenabled()) or levels(p))
    builds = [
        (lambda: parse_game("0 1 0 0;\n"), None),
        (lambda: parse_game("0 1 0 1;\n"), ParseError),
        (lambda: OddFairGame([0], [1], [[0]]), None),
        (lambda: OddFairGame([0], [1], [[1]]), ValueError),
    ]
    was = gc.isenabled()
    try:
        for build, error in builds:
            gc.enable() if enabled else gc.disable()
            if error is None:
                build()
            else:
                with pytest.raises(error):
                    build()
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert states == [False, False, False]  # each game that got that far was built with it off


def test_validate_reports_defects():
    g = build_game([1, 0], [1, 2], [[0, 1], [1]], live=[(0, 1)])
    assert validate(g) is None
    dead = OddFairGame([0], [1], [[]])
    assert "dead end" in validate(dead)
    even_src = OddFairGame([0, 0], [1, 2], [[1], [0]], live_edges=[(0, 1)])
    assert "owned by Even" in validate(even_src)
    not_edge = OddFairGame([1, 0], [1, 2], [[1], [0]], live_edges=[(0, 0)])
    assert "not in the edge set" in validate(not_edge)


@given(st.sets(st.integers(min_value=0, max_value=15)))
def test_region_roundtrip_and_complement(members):
    r = Region.of(16, members)
    assert set(r) == members
    assert len(r) == len(members)
    assert set(r.complement()) == set(range(16)) - members
    assert r.complement().complement() == r


@given(
    st.sets(st.integers(min_value=0, max_value=11)),
    st.sets(st.integers(min_value=0, max_value=11)),
)
def test_region_algebra_matches_set_algebra(a, b):
    ra, rb = Region.of(12, a), Region.of(12, b)
    assert set(ra | rb) == a | b
    assert set(ra & rb) == a & b
    assert set(ra - rb) == a - b
    assert ra.issubset(rb) == (a <= b)
    assert ra.isdisjoint(rb) == (not a & b)


def test_region_universe_mismatch_raises():
    with pytest.raises(ValueError):
        Region.of(3, [0]) | Region.of(4, [0])
    with pytest.raises(ValueError):
        Region.of(3, [3])


def test_subgame_view_rejects_dead_ends():
    g = build_game([0, 1], [1, 2], [[1], [0, 1]])
    SubgameView(g, Region.of(2, [1]))  # 1 has the self loop
    with pytest.raises(ValueError, match="dead end"):
        SubgameView(g, Region.of(2, [0]))


def test_subgame_view_player_vertices(ex1):
    view = SubgameView.full(ex1)
    assert set(view.vertices(EVEN)) == {0, 1, 4}
    assert set(view.vertices(ODD)) == {2, 3, 5, 6}
    assert view.vertices() == view.active


def test_least_even_upperbound(ex1):
    assert least_even_upperbound(ex1) == 4
    assert least_even_upperbound(ex1, Region.of(ex1.n, [0, 4])) == 4
    assert least_even_upperbound(ex1, Region.of(ex1.n, [0])) == 2
    tiny = build_game([0], [1], [[0]])
    assert least_even_upperbound(tiny) == 2


def test_priority_class(ex1):
    names = ex1.names
    c2 = {names[v] for v in priority_class(ex1, 2)}
    assert c2 == {"2a", "2b", "2c"}
    assert set(priority_class(ex1, 4)) == {6}
    assert not priority_class(ex1, 5)


# -- reference versions of the quadratic constructions the linear ones replace --


def reference_live(n, live_edges):
    """(live_succ, live_pred, live) as built by one scan of the live edges per vertex."""
    live_edges = list(live_edges)
    live_succ = tuple(sorted({w for (u, w) in live_edges if u == v}) for v in range(n))
    live_pred = [[] for _ in range(n)]
    for v in range(n):
        for w in live_succ[v]:
            if 0 <= w < n:
                live_pred[w].append(v)
    return live_succ, tuple(tuple(ps) for ps in live_pred), frozenset(live_edges)


def reference_iter(mask):
    """Region members by peeling the lowest bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_live_edges_from_a_generator_are_all_kept():
    edges = ((u, w) for (u, w) in [(0, 1), (1, 0)])
    g = OddFairGame([1, 1], [1, 1], [[0, 1], [0, 1]], edges)
    assert g.live_succ == ([1], [0])
    assert g.live == frozenset({(0, 1), (1, 0)})
    assert g.live_pred == ((1,), (0,))


def test_live_edges_are_iterated_once():
    class Counting:
        calls = 0

        def __iter__(self):
            Counting.calls += 1
            return iter([(0, 1), (0, 0), (1, 1)])

    g = OddFairGame([1, 1], [1, 2], [[0, 1], [1]], Counting())
    assert Counting.calls == 1
    assert g.live_succ == ([0, 1], [1])


def test_live_adjacency_matches_reference_on_seeded_games():
    for seed in range(40):
        n = 1 + seed * 7
        g = mutate_liveness(random_game(n, 1 + seed % 6, seed), (0, 30, 50, 100)[seed % 4], seed)
        edges = sorted(g.live)
        random.Random(seed).shuffle(edges)
        h = OddFairGame(g.owner, g.original_priority, g.succ, edges)
        assert (h.live_succ, h.live_pred, h.live) == reference_live(n, edges)
        assert all(type(ws) is list for ws in h.live_succ)


@pytest.mark.parametrize(
    "live, message",
    [
        ([(0, 1), (0, 1), (0, 0), (0, 1)], None),
        ([(0, 1), (5, 0)], "live edge (5, 0) references a nonexistent vertex"),
        ([(0, 7), (0, 0)], "live edge (0, 7) references a nonexistent vertex"),
        ([(-1, 0), (0, 1)], "live edge (-1, 0) references a nonexistent vertex"),
        ([(1, 1), (0, 0)], "live edge source owned by Even at 1"),
    ],
)
def test_live_adjacency_matches_reference_on_hand_built_edges(live, message):
    g = OddFairGame([1, 0], [1, 2], [[0, 1], [1]], live)
    assert (g.live_succ, g.live_pred, g.live) == reference_live(2, live)
    assert validate(g) == message


def reference_scan(region):
    """`Region.__iter__` as it was: a `str.find` walk over the bit string."""
    bits = region.bits()
    v = bits.find("1")
    while v >= 0:
        yield v
        v = bits.find("1", v + 1)


def test_region_iteration_and_building_match_bit_peeling():
    rng = random.Random(5)
    for n in (0, 1, 2, 7, 13, 63, 64, 65, 1000, 100_000):
        masks = [0, (1 << n) - 1, rng.getrandbits(n) if n else 0]
        if n:
            masks.append((1 << (n - 1)) | (1 << (n // 2)))  # sparse, high bits
            masks.append(1 << (n - 1))  # the top bit alone
        for mask in masks:
            assert list(Region(n, mask)) == reference_iter(mask) == list(reference_scan(Region(n, mask)))
            assert Region.of(n, reversed(reference_iter(mask))).mask == mask


def reference_dead_end(game, active):
    members = set(reference_iter(active.mask))
    return next((v for v in sorted(members) if not members & set(game.succ[v])), None)


def test_subgame_view_names_the_smallest_dead_end():
    rng = random.Random(3)
    checked = 0
    for seed, _, g in small_games(200, max_n=12):
        active = Region(g.n, rng.getrandbits(g.n))
        expected = reference_dead_end(g, active)
        if expected is None:
            assert SubgameView(g, active).active == active
            continue
        with pytest.raises(ValueError, match=f"dead end at {expected}$"):
            SubgameView(g, active)
        checked += 1
    assert checked > 50


def test_full_view_of_a_game_with_a_dead_end_names_it():
    # the full view skips its successor walk only when no vertex dead-ends
    g = build_game([0, 1, 0, 1], [1, 2, 1, 2], [[1], [2], [], [2, 3]])
    with pytest.raises(ValueError, match="^restriction creates a dead end at 2$"):
        SubgameView.full(g)
    whole = build_game([0, 1], [1, 2], [[1], [0, 1]])
    assert SubgameView.full(whole).active == Region.full(2)
