import pytest

from fairgame.game import ODD, OddFairGame, validate
from fairgame.pgfile import (
    ParseError,
    mutate_liveness,
    mutate_priorities,
    parse_game,
    random_game,
    write_game,
)
from fairgame.rng import SplitMix64, derive_seed

from conftest import make_ex1


def test_write_parse_roundtrip_byte_exact(ex1):
    text = write_game(ex1)
    again = write_game(parse_game(text))
    assert again == text
    assert '"1a"' in text and "live" in text


def test_parse_preserves_structure(ex1):
    g = parse_game(write_game(ex1))
    assert g.owner == ex1.owner
    assert g.original_priority == ex1.original_priority
    assert g.succ == ex1.succ
    assert g.live == ex1.live
    assert g.names == ex1.names


def test_parse_remaps_sparse_ids():
    text = "parity 30;\n7 1 1 7,30;\n30 2 0 7;\nlive 7 30;\n"
    g = parse_game(text)
    assert g.n == 2
    assert g.original_ids == (7, 30)
    assert g.succ == ((0, 1), (0,))  # 7 -> index 0, 30 -> index 1
    assert g.live == frozenset({(0, 1)})
    assert write_game(g) == text


def test_parse_accepts_duplicate_successor_entries():
    text = "0 2 0 1,1;\n1 1 1 0;\n"
    g = parse_game(text)
    assert g.succ[0] == (1, 1)
    assert write_game(parse_game(write_game(g))) == write_game(g)


@pytest.mark.parametrize(
    "text, lineno, needle",
    [
        ("0 1 0 1\n1 1 1 0;\n", 1, "missing ';'"),
        ("0 1 0;\n", 1, "malformed node record"),
        ("0 1 2 0;\n", 1, "malformed node record"),
        ("0 1 0 0;\n0 2 1 0;\n", 2, "duplicate vertex id"),
        ("0 1 0 3;\n", 1, "successor 3"),
        ("0 1 0 0;\nlive 0 0 0;\n", 2, "malformed 'live'"),
        ("0 1 0 0;\nlive 5 0;\n", 2, "nonexistent source"),
        ("0 1 0 0;\nlive 0 5;\n", 2, "nonexistent target"),
        ("0 1 0 0;\n1 1 1 1;\nlive 0 0;\n", 3, "owned by Even"),
        ("0 1 1 0;\n1 1 1 1;\nlive 0 1;\n", 3, "not in the edge set"),
        ("0 1 0 0;\nparity 0;\n", 2, "unexpected 'parity'"),
        ("parity x;\n", 1, "malformed 'parity'"),
        ("parity \u00b2;\n", 1, "malformed 'parity'"),
        ("0 1 0 0;\nlive \u00b2 0;\n", 2, "malformed 'live'"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, needle):
    with pytest.raises(ParseError) as exc:
        parse_game(text)
    assert exc.value.line == lineno
    assert needle in str(exc.value)


def test_parse_rejects_empty_input():
    with pytest.raises(ParseError, match="no vertex records"):
        parse_game("\n\n")


def test_random_game_is_wellformed_and_deterministic():
    for seed in range(30):
        g = random_game(5 + seed % 20, 1 + seed % 6, seed)
        assert validate(g) is None
        assert not g.live
        h = random_game(5 + seed % 20, 1 + seed % 6, seed)
        assert h.succ == g.succ and h.owner == g.owner and h.priority == g.priority


def reference_random_game(n, priorities, seed, min_degree=1, max_degree=3):
    """random_game as first written: a full list of targets shuffled per vertex."""
    max_degree = min(max_degree, n)
    min_degree = max(1, min(min_degree, max_degree))
    g = SplitMix64(seed)
    owners = [g.below(2) for _ in range(n)]
    pris = [1 + g.below(priorities) for _ in range(n)]
    succs = []
    for v in range(n):
        d = min_degree + g.below(max_degree - min_degree + 1)
        pool = list(range(n))
        picks = SplitMix64(derive_seed(seed, (v << 1) | 1)).shuffle_prefix(pool, d)[:d]
        succs.append(sorted(picks))
    return OddFairGame(owners, pris, succs)


def test_random_game_is_bit_identical_to_reference():
    cases = [(1, 1, 0, 1, 3), (1, 4, 7, 2, 9), (2, 2, 3, 1, 3), (2, 3, 8, 2, 2), (3, 2, 1, 5, 9)]
    for i in range(220):
        n = 1 + i % 23
        lo = 1 + i % 4
        cases.append((n, 1 + i % 7, 1000 + i, lo, lo + i % 5 + (n if i % 9 == 0 else 0)))
    for n, p, seed, lo, hi in cases:
        expected = write_game(reference_random_game(n, p, seed, lo, hi))
        assert write_game(random_game(n, p, seed, lo, hi)) == expected, (n, p, seed, lo, hi)


def test_random_game_at_scale_has_its_shape():
    g = random_game(100_000, 8, 17)
    assert g.n == 100_000 and not g.live
    assert set(g.priority) <= set(range(1, 9)) and set(g.owner) == {0, 1}
    for ws in g.succ:
        assert 1 <= len(ws) <= 3 and list(ws) == sorted(set(ws))
        assert 0 <= ws[0] and ws[-1] < g.n


def test_sample_is_the_shuffled_prefix():
    for n in range(8):
        for k in range(10):
            for seed in range(12):
                a, b = SplitMix64(seed), SplitMix64(seed)
                assert a.sample(n, k) == b.shuffle_prefix(list(range(n)), k)[:k]
                assert a.state == b.state


def test_mutate_liveness_floor_counts():
    g = random_game(40, 3, seed=11)
    odd = [v for v in range(g.n) if g.owner[v] == ODD]
    m = mutate_liveness(g, 50, seed=3)
    sources = {u for (u, w) in m.live}
    assert len(sources) == (50 * len(odd)) // 100
    for v in sources:
        d = len(g.succ[v])
        assert len(m.live_succ[v]) == max(1, (50 * d) // 100)
    assert mutate_liveness(g, 50, seed=3).live == m.live


def test_mutate_liveness_alpha_100_marks_every_odd_vertex():
    g = random_game(25, 4, seed=5)
    m = mutate_liveness(g, 100, seed=5)
    odd = {v for v in range(g.n) if g.owner[v] == ODD}
    assert {u for (u, w) in m.live} == odd
    for v in odd:
        assert m.live_succ[v] == sorted(set(g.succ[v]))


def test_mutate_liveness_alpha_0_strips_live_edges(ex1):
    m = mutate_liveness(ex1, 0, seed=1)
    assert not m.live
    assert m.succ == ex1.succ


def test_mutate_liveness_is_prefix_stable_nested():
    for seed in range(40):
        g = random_game(4 + seed % 22, 3, seed)
        prev = frozenset()
        for alpha in (0, 30, 50, 80, 100):
            cur = mutate_liveness(g, alpha, seed=seed).live
            assert prev <= cur
            prev = cur


def test_mutate_liveness_rejects_bad_alpha(ex1):
    with pytest.raises(ValueError):
        mutate_liveness(ex1, -1, seed=0)
    with pytest.raises(ValueError):
        mutate_liveness(ex1, 101, seed=0)


def test_mutate_priorities_range_and_determinism():
    g = random_game(30, 2, seed=9)
    m = mutate_priorities(g, 7, seed=4)
    assert all(1 <= p <= 7 for p in m.original_priority)
    assert m.succ == g.succ and m.owner == g.owner
    assert mutate_priorities(g, 7, seed=4).original_priority == m.original_priority


def test_mutated_games_roundtrip_through_the_format():
    base = random_game(12, 4, seed=21)
    m = mutate_liveness(base, 80, seed=21)
    text = write_game(m)
    g = parse_game(text)
    assert g.live == m.live
    assert write_game(g) == text
