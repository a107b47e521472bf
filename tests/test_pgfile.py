import random
import re
from collections import Counter

import pytest

from fairgame.cli import main
from fairgame.game import ODD, OddFairGame
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


def test_every_name_the_constructor_takes_round_trips():
    names = ["\t", "a\tb", "\u00a0", "x\u00a0y", ";", "a;b", "", None]
    g = OddFairGame([0] * len(names), [1] * len(names), [[v] for v in range(len(names))], names=names)
    text = write_game(g)
    assert parse_game(text).names == tuple(names)
    assert write_game(parse_game(text)) == text


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


@pytest.mark.parametrize("text", ["0 1 0 0\x1f,0;\n", "0 1 0 0 ,\x1f0;\n"])
def test_unit_separator_in_a_successor_list_is_whitespace(tmp_path, capsys, text):
    # the grammar's \s and str.split() take U+001F as whitespace, but int() does
    # not strip it (U+001C-U+001E end a line, so they never reach int())
    assert parse_game(text).succ == ((0, 0),)
    assert _fields(parse_game(text)) == _fields(reference_parse_game(text.replace("\x1f", " ")))
    path = tmp_path / "g.gm"
    path.write_text(text)
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == "W_Even:\nW_Odd: 0\n"


def test_random_game_is_wellformed_and_deterministic():
    for seed in range(30):
        g = random_game(5 + seed % 20, 1 + seed % 6, seed)  # built, so valid
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
        assert m.live_succ[v] == tuple(sorted(set(g.succ[v])))


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


_REFERENCE_NODE_RE = re.compile(
    r"^(\d+)\s+(\d+)\s+([01])\s+(\d+(?:\s*,\s*\d+)*)(?:\s+\"([^\"]*)\")?$"
)


def reference_parse_game(text) -> OddFairGame:
    """parse_game as first written: a records dict of 5-tuples, then a second pass in id order."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    records = {}  # original id -> (priority, owner, succ original ids, name, line)
    live_records = []  # (src, dst, line)
    seen_header = False
    seen_record = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("missing ';'", lineno)
        stmt = line[:-1].strip()
        if stmt.startswith("parity"):
            if seen_header or seen_record:
                raise ParseError("unexpected 'parity' header", lineno)
            rest = stmt[len("parity"):].strip()
            if not rest.isdecimal():
                raise ParseError("malformed 'parity' header", lineno)
            seen_header = True
            continue
        if stmt.startswith("live"):
            parts = stmt[len("live"):].split()
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise ParseError("malformed 'live' line", lineno)
            live_records.append((int(parts[0]), int(parts[1]), lineno))
            continue
        m = _REFERENCE_NODE_RE.match(stmt)
        if m is None:
            raise ParseError("malformed node record", lineno)
        vid = int(m.group(1))
        if vid in records:
            raise ParseError(f"duplicate vertex id {vid}", lineno)
        succs = [int(s) for s in m.group(4).split(",")]
        records[vid] = (int(m.group(2)), int(m.group(3)), succs, m.group(5), lineno)
        seen_record = True

    if not records:
        raise ParseError("no vertex records")
    order = sorted(records)
    index = {vid: i for i, vid in enumerate(order)}
    owners, priorities, successors, names = [], [], [], []
    for vid in order:
        pri, owner, succs, name, lineno = records[vid]
        if not succs:
            raise ParseError(f"dead end at {vid}", lineno)
        dense = []
        for s in succs:
            if s not in index:
                raise ParseError(f"successor {s} of {vid} does not exist", lineno)
            dense.append(index[s])
        owners.append(owner)
        priorities.append(pri)
        successors.append(dense)
        names.append(name)
    live = []
    for src, dst, lineno in live_records:
        if src not in index:
            raise ParseError(f"live edge references nonexistent source {src}", lineno)
        if dst not in index:
            raise ParseError(f"live edge references nonexistent target {dst}", lineno)
        u, w = index[src], index[dst]
        if records[src][1] != ODD:
            raise ParseError(f"live edge source owned by Even at {src}", lineno)
        if w not in successors[u]:
            raise ParseError(f"live edge ({src}, {dst}) not in the edge set", lineno)
        live.append((u, w))
    return OddFairGame(owners, priorities, successors, live, names, order)


# Arabic-Indic and fullwidth digits are decimal to both int() and the grammar's \d
_DIGITS = [str.maketrans("0123456789", "".join(chr(z + i) for i in range(10))) for z in (0x660, 0xFF10)]
_GAPS = [" ", " ", "  ", "\t", " \t", "\u00a0", "\u3000"]
_COMMAS = [",", ",", " ,", ", ", " , ", "\t,\t"]
_CORRUPTIONS = ["drop-semicolon", "duplicate-id", "dangling", "owner-2", "live-from-even",
                "live-not-an-edge", "live-missing-vertex", "header-after-records", "empty"]


def _random_game_text(rng, corruptions=()):
    """A seeded game text in a varied layout, with the named defects put in."""
    n = rng.randint(2 if "duplicate-id" in corruptions else 1, 9)
    layout = rng.choice(["dense", "sparse", "shuffled"])
    ids = list(range(n)) if layout == "dense" else rng.sample(range(3 * n + 5), n)
    if layout == "sparse":
        ids.sort()
    owner = {v: rng.randint(0, 1) for v in ids}
    succ = {v: rng.choices(ids, k=rng.randint(1, 3)) for v in ids}
    live = [(u, w) for u in ids if owner[u] == 1 for w in sorted(set(succ[u])) if rng.random() < 0.4]
    names = {v: "".join(rng.choices("ab ;:-x", k=rng.randint(0, 5))) if rng.random() < 0.3 else None for v in ids}
    records = {v: [v, rng.choice([0, 1, 2, 3, 4, 5, 8, 13]), owner[v], succ[v], names[v]] for v in ids}
    header = rng.random() < 0.6
    header_late = False
    missing = max(ids) + 1 + rng.randint(0, 3)
    for kind in corruptions:
        u = rng.choice(ids)
        if kind == "duplicate-id":
            records[u][0] = rng.choice([v for v in ids if v != u])
        elif kind == "dangling":  # on up to three vertices, up to two per list
            for v in rng.sample(ids, min(n, rng.randint(1, 3))):
                for extra in range(rng.randint(1, 2)):
                    ws = records[v][3] = list(records[v][3])
                    ws.insert(rng.randint(0, len(ws)), missing + extra)
        elif kind == "owner-2":
            records[u][2] = 2
        elif kind == "live-from-even":
            records[u][2] = 0
            live.insert(rng.randint(0, len(live)), (u, rng.choice(succ[u])))
        elif kind == "live-not-an-edge":
            others = [w for w in ids if w not in succ[u]]
            live.insert(rng.randint(0, len(live)), (u, rng.choice(others) if others else missing))
        elif kind == "live-missing-vertex":
            live.insert(rng.randint(0, len(live)), rng.choice([(missing, u), (u, missing)]))
        elif kind == "header-after-records":
            header = header_late = True

    tr = rng.choice([None, None] + _DIGITS)

    def num(k):
        s = ("0" if rng.random() < 0.05 else "") + str(k)
        return s.translate(tr) if tr is not None and rng.random() < 0.5 else s

    def gap(empty_ok=False):
        return "" if empty_ok and rng.random() < 0.5 else rng.choice(_GAPS)

    def record_line(vid, pri, own, ws, name):
        line = gap(True) + num(vid) + gap() + num(pri) + gap() + str(own) + gap()
        line += "".join((rng.choice(_COMMAS) if i else "") + num(w) for i, w in enumerate(ws))
        if name is not None:
            line += gap() + f'"{name}"'
        return line + gap(True) + ";" + gap(True)

    body = [record_line(*records[v]) for v in ids]
    if layout == "shuffled":
        rng.shuffle(body)
    lines = [f"live{gap(rng.random() < 0.1)}{num(u)}{gap()}{num(w)}{gap(True)};" for u, w in live]
    k = rng.randint(0, len(lines))
    lines = lines[:k] + body + lines[k:]  # live lines before and after the records
    head = f"parity{gap()}{num(max(ids) + rng.randint(0, 2))};"
    if header_late:
        lines.insert(k + rng.randint(1, len(body)), head)
    elif header:
        lines.insert(rng.randint(0, k), head)
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "  ", "\t"]))
    if "drop-semicolon" in corruptions:
        i = rng.choice([i for i, line in enumerate(lines) if line.strip()])
        lines[i] = "".join(lines[i].rsplit(";", 1))
    if "empty" in corruptions:
        lines = [rng.choice(["", " ", "\t"]) for _ in range(rng.randint(0, 3))]
    eol = rng.choice(["\n", "\n", "\r\n", "\r"])
    return eol.join(lines) + (eol if rng.random() < 0.8 else "")


def _fields(game):
    return (game.owner, game.original_priority, game.succ, game.live, game.names,
            game.original_ids, game.level, write_game(game))


def test_parser_matches_reference_on_valid_texts():
    rng = random.Random(1405)
    for i in range(2000):
        text = _random_game_text(rng)
        assert _fields(parse_game(text)) == _fields(reference_parse_game(text)), (i, text)


def test_parser_reports_the_reference_first_error_on_corrupted_texts():
    rng = random.Random(2807)
    kinds = Counter()
    for i in range(2000):
        corruptions = rng.sample(_CORRUPTIONS, rng.choice([1, 1, 2, 3]))
        text = _random_game_text(rng, corruptions)
        with pytest.raises(ParseError) as expected:
            reference_parse_game(text)
        with pytest.raises(ParseError) as got:
            parse_game(text)
        assert (got.value.line, str(got.value)) == (expected.value.line, str(expected.value)), (i, text)
        kinds[re.sub(r"\d+", "#", str(expected.value).split(": ", 1)[-1])] += 1
    assert len(kinds) == 10, kinds  # each defect, and each live-edge check, comes first somewhere
