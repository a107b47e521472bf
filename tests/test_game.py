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
)
from fairgame import game as game_module
from fairgame.bench import SOLVER_TAGS, solve_instance
from fairgame.pgfile import ParseError, mutate_liveness, parse_game, random_game, write_game

from conftest import build_game, game_fields, small_games, varied_game


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
    assert g.live_succ[0] == (0, 1)
    assert g.live_succ[1] == ()
    assert set(g.live_pred[1]) == {0}


def test_live_successor_rows_are_tuples_of_sorted_targets():
    # the live-free vertices share one row, so a mutable row would let one append grow them all
    g = OddFairGame([1, 1, 0], [1, 2, 3], [[0, 1], [1], [2]], [(0, 1)])
    with pytest.raises(AttributeError):
        g.live_succ[1].append(2)
    assert g.live_succ == ((1,), (), ())  # a list row would not compare equal


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
        ([], [], [], "a game needs at least one vertex"),
        ([], [-1], [], "owners, priorities, successors must have equal length"),
        ([2], [-1], [[]], "priorities must be non-negative"),
        ([2, 0], [1, 2], [[], [3]], "owner must be 0 (Even) or 1 (Odd)"),
        ([0, 1, 0], [1, 2, 1], [[1], [], []], "dead end at 1"),
        ([0, 1], [1, 2], [[], [2]], "successor 2 of vertex 1 out of range"),
        ([0, 1], [1, 2, 3], [[1], [0]], "owners, priorities, successors must have equal length"),
        ([0, 1], [-1, 0], [[1], [0]], "priorities must be non-negative"),
        # a row that passes names or original ids holds them beside its message
        ([0, 1], [1, 2], [[1], [0]], ("names must have one entry per vertex", {"names": ["a"]})),
        ([0, 1], [1, 2], [[1], [0]], ("names must have one entry per vertex", {"names": ["a", "b", "c"]})),
        ([0, 1], [1, 2], [[1], [2]], ("successor 2 of vertex 1 out of range", {"names": ["a"]})),
        ([0, 1], [1, 2], [[1], [0]], ("original ids must have one entry per vertex", {"original_ids": [0]})),
        ([0, 1], [1, 2], [[1], [0]], ("original id 3 of vertex 1 is repeated", {"original_ids": [3, 3]})),
        ([0, 1], [1, 2], [[1], [0]], ("original id -1 of vertex 0 is negative", {"original_ids": [-1, 2]})),
        ([0, 1], [1, 2], [[1], [0]], ("original id -1 of vertex 1 is negative", {"original_ids": [4, -1]})),
        ([0, 1], [1, 2], [[1], [0]], ("names must have one entry per vertex", {"names": [], "original_ids": [0]})),
        ([0, 1], [1, 2], [[1], [0]], ("original ids must have one entry per vertex", {"names": ['"', None], "original_ids": [0]})),
        ([0, 1], [1, 2], [[1], [0]], ("name of vertex 1 contains '\\n'", {"names": [None, "\n"], "original_ids": [3, 3]})),
        ([0, 1], [1, 2], [[1], []], ("original id 3 of vertex 1 is repeated", {"original_ids": [3, 3]})),
    ],
)
def test_constructor_names_the_first_violated_check(owners, priorities, succ, message):
    message, columns = message if isinstance(message, tuple) else (message, {})
    with pytest.raises(ValueError) as exc:
        OddFairGame(owners, priorities, succ, **columns)
    assert str(exc.value) == message
    try:
        base = OddFairGame(owners, [1] * len(owners), succ, **columns)
    except ValueError:  # a defect of the structure, which no derivation meets
        return
    with pytest.raises(ValueError) as exc:
        base.with_priorities(priorities)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "succ, live, names, message",
    [
        # the live edges come after every other check, in sorted order, each with its first defect
        ([[0], [1]], [(-1, 1), (0, 0)], None, "live edge (-1, 1) references a nonexistent vertex"),
        ([[0], [1]], [(1, 1), (1, 0), (0, 9)], None, "live edge (0, 9) references a nonexistent vertex"),
        ([[0], [0, 1]], [(1, 5), (0, 0)], None, "live edge source owned by Even at 0"),
        ([[0], [0]], [(1, 2), (1, 1)], None, "live edge (1, 1) not in the edge set"),
        ([[0], [0, 1]], [(1, 2), (1, 0)], None, "live edge (1, 2) references a nonexistent vertex"),
        ([[], [0]], [(0, 0), (2, 2)], None, "dead end at 0"),
        ([[0], [2]], [(0, 0)], None, "successor 2 of vertex 1 out of range"),
        ([[0], [1]], [(0, 0)], ['"', None], "name of vertex 0 contains '\"'"),
    ],
)
def test_constructor_checks_live_edges_last(succ, live, names, message):
    with pytest.raises(ValueError) as exc:
        OddFairGame([0, 1], [1, 2], succ, live, names=names)
    assert str(exc.value) == message
    try:
        base = OddFairGame([0, 1], [1, 2], succ, names=names)
    except ValueError:  # a defect of the structure, which no derivation meets
        return
    with pytest.raises(ValueError) as exc:
        base.with_live(live)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "succ, names, message",
    [
        ([[0], [1]], [None, 'a"b'], "name of vertex 1 contains '\"'"),
        *(([[0], [1]], ["ok", f"a{ch}b"], f"name of vertex 1 contains {ch!r}")
          for ch in "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"),
        ([[0], [1]], ["\u2028", '"'], "name of vertex 0 contains '\\u2028'"),
        # the name check comes after the four checks above, and before the dead-end check
        ([[0], [2]], [None, 'a"b'], "successor 2 of vertex 1 out of range"),
        ([[], [1]], [None, 'a"b'], "name of vertex 1 contains '\"'"),
    ],
)
def test_constructor_rejects_names_a_game_file_cannot_hold(succ, names, message):
    # parse_game splits its text with str.splitlines, so each of these would
    # make write_game's output unreadable
    with pytest.raises(ValueError) as exc:
        OddFairGame([0, 1], [1, 2], succ, names=names)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", range(6))
def test_derivations_match_a_from_scratch_build(seed):
    g = varied_game(seed)
    before = game_fields(g)
    rng = random.Random(seed)
    other = sorted(mutate_liveness(g, 100, seed + 1).live)
    rng.shuffle(other)
    for live in ((), sorted(g.live), other, other + other[:5]):
        expected = game_fields(OddFairGame(g.owner, g.original_priority, g.succ, live, g.names, g.original_ids))
        for h in (g.with_live(live), g.with_live(iter(live))):
            assert game_fields(h) == expected
            assert h.succ is g.succ and h.pred is g.pred and h.level is g.level
    for zeros in (False, True):  # the shift goes away or comes in
        priorities = [rng.randint(0 if zeros else 1, 9) for _ in range(g.n)]
        expected = game_fields(OddFairGame(g.owner, priorities, g.succ, g.live, g.names, g.original_ids))
        h = g.with_priorities(priorities)
        assert game_fields(h) == expected
        assert h.succ is g.succ and h.pred is g.pred and h.live_succ is g.live_succ
        both = h.with_live(other)
        assert game_fields(both) == game_fields(
            OddFairGame(g.owner, priorities, g.succ, other, g.names, g.original_ids)
        )
        assert both.succ is g.succ and both.pred is g.pred
    assert game_fields(g) == before  # the source is left as it was


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
    # validation is the constructor's: a game it returns has none of these defects
    build_game([1, 0], [1, 2], [[0, 1], [1]], live=[(0, 1)])
    with pytest.raises(ValueError, match="^dead end at 0$"):
        OddFairGame([0], [1], [[]])
    with pytest.raises(ValueError, match="^live edge source owned by Even at 0$"):
        OddFairGame([0, 0], [1, 2], [[1], [0]], live_edges=[(0, 1)])
    with pytest.raises(ValueError, match=r"^live edge \(0, 0\) not in the edge set$"):
        OddFairGame([1, 0], [1, 2], [[1], [0]], live_edges=[(0, 0)])


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
    live_succ = tuple(tuple(sorted({w for (u, w) in live_edges if u == v})) for v in range(n))
    live_pred = [[] for _ in range(n)]
    for v in range(n):
        for w in live_succ[v]:
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
    assert g.live_succ == ((1,), (0,))
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
    assert g.live_succ == ((0, 1), (1,))


def test_live_adjacency_matches_reference_on_seeded_games():
    for seed in range(40):
        n = 1 + seed * 7
        g = mutate_liveness(random_game(n, 1 + seed % 6, seed), (0, 30, 50, 100)[seed % 4], seed)
        edges = sorted(g.live)
        random.Random(seed).shuffle(edges)
        h = OddFairGame(g.owner, g.original_priority, g.succ, edges)
        assert (h.live_succ, h.live_pred, h.live) == reference_live(n, edges)
        assert all(type(ws) is tuple for ws in h.live_succ)


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
    if message is not None:
        with pytest.raises(ValueError) as exc:
            OddFairGame([1, 0], [1, 2], [[0, 1], [1]], live)
        assert str(exc.value) == message
        return
    g = OddFairGame([1, 0], [1, 2], [[0, 1], [1]], live)
    assert (g.live_succ, g.live_pred, g.live) == reference_live(2, live)


def test_a_game_with_one_random_live_pair_is_rejected_or_solved_alike():
    # the pair may name a missing vertex, leave an Even vertex or not be an edge
    rng = random.Random(1)
    built = 0
    for _ in range(4000):
        n = rng.randint(2, 5)
        owners = [rng.randint(0, 1) for _ in range(n)]
        priorities = [rng.randint(0, 4) for _ in range(n)]
        succ = [rng.sample(range(n), rng.randint(1, n)) for _ in range(n)]
        live = [(rng.randint(-1, n), rng.randint(-1, n))]
        try:
            g = OddFairGame(owners, priorities, succ, live)
        except ValueError:
            continue
        built += 1
        regions = {algo: solve_instance(g, algo, None, False)[:2] for algo in SOLVER_TAGS}
        assert regions["of-zl"] == regions["of-fp"], (owners, priorities, succ, live)
        assert regions["n-zl"] == regions["n-fp"], (owners, priorities, succ, live)
        text = write_game(g)
        assert write_game(parse_game(text)) == text
    assert built > 300


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
    # no game has a dead end, so the full view skips its successor walk
    with pytest.raises(ValueError, match="^dead end at 2$"):
        build_game([0, 1, 0, 1], [1, 2, 1, 2], [[1], [2], [], [2, 3]])
    whole = build_game([0, 1], [1, 2], [[1], [0, 1]])
    assert SubgameView.full(whole).active == Region.full(2)
