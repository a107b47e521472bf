"""PGSolver-format games with a live-edge extension, plus instance generation.

Grammar, whitespace tolerant, no comments:

    parity <max-id>;                      (optional header)
    <id> <priority> <owner> <s>(,<s>)* ("<name>")?;    (one per vertex)
    live <src> <dst>;                     (zero or more, after node records)

Owner 0 is Even, 1 is Odd. Input ids are remapped to dense 0-based ids in
ascending id order; originals are kept on the game for output.
"""

from __future__ import annotations

import math
import re
from typing import Optional

from .game import ODD, OddFairGame
from .rng import SplitMix64, derive_seed


class ParseError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


_NODE_RE = re.compile(
    r"^(\d+)\s+(\d+)\s+([01])\s+(\d+(?:\s*,\s*\d+)*)(?:\s+\"([^\"]*)\")?$"
)


def parse_game(text) -> OddFairGame:
    """Parse a game; raises ParseError with a line number on any defect."""
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
            if not rest.isdigit():
                raise ParseError("malformed 'parity' header", lineno)
            seen_header = True
            continue
        if stmt.startswith("live"):
            parts = stmt[len("live"):].split()
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise ParseError("malformed 'live' line", lineno)
            live_records.append((int(parts[0]), int(parts[1]), lineno))
            continue
        m = _NODE_RE.match(stmt)
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


def write_game(game: OddFairGame) -> str:
    """Serialize with original ids and original (unshifted) priorities."""
    out = [f"parity {max(game.original_ids)};"]
    for v in range(game.n):
        succs = ",".join(str(game.original_ids[w]) for w in game.succ[v])
        name = f' "{game.names[v]}"' if game.names[v] is not None else ""
        out.append(
            f"{game.original_ids[v]} {game.original_priority[v]} {game.owner[v]} {succs}{name};"
        )
    for u, w in sorted((game.original_ids[u], game.original_ids[w]) for (u, w) in game.live):
        out.append(f"live {u} {w};")
    return "\n".join(out) + "\n"


def _floor_percent(alpha, count: int) -> int:
    # exact for integral alpha; floats go through floor with a tiny guard
    if isinstance(alpha, int):
        return (alpha * count) // 100
    return math.floor(alpha * count / 100 + 1e-12)


def mutate_liveness(game: OddFairGame, alpha, seed: int) -> OddFairGame:
    """Mark floor(alpha% of |V_Odd|) Odd vertices and, per marked vertex of
    out-degree d, max(1, floor(alpha% of d)) of its edges as live.

    Existing live edges are discarded. Selection is prefix-stable: the same
    seed with a larger alpha yields a superset of live edges.
    """
    if not 0 <= alpha <= 100:
        raise ValueError("alpha must be in [0, 100]")
    if alpha == 0:
        if not game.live:
            return game
        return OddFairGame(
            game.owner, game.original_priority, game.succ, (),
            game.names, game.original_ids,
        )
    odd_vertices = [v for v in range(game.n) if game.owner[v] == ODD]
    k = _floor_percent(alpha, len(odd_vertices))
    master = SplitMix64(seed)
    selected = master.shuffle_prefix(list(odd_vertices), k)[:k]
    live = []
    for v in sorted(selected):
        d = len(game.succ[v])
        m = max(1, _floor_percent(alpha, d))
        picks = SplitMix64(derive_seed(seed, v)).sample(d, m)
        for i in picks:
            live.append((v, game.succ[v][i]))
    return OddFairGame(
        game.owner, game.original_priority, game.succ, live,
        game.names, game.original_ids,
    )


def mutate_priorities(game: OddFairGame, p: int, seed: int) -> OddFairGame:
    """Redraw every priority independently and uniformly from {1, ..., p}."""
    if p < 1:
        raise ValueError("p must be >= 1")
    g = SplitMix64(seed)
    priorities = [1 + g.below(p) for _ in range(game.n)]
    return OddFairGame(
        game.owner, priorities, game.succ, sorted(game.live),
        game.names, game.original_ids,
    )


def random_game(
    n: int,
    priorities: int,
    seed: int,
    min_degree: int = 1,
    max_degree: int = 3,
) -> OddFairGame:
    """A random dead-end-free parity game without live edges.

    Owners are fair coin flips, priorities uniform in {1, ..., priorities},
    out-degrees uniform in [min_degree, max_degree], targets distinct.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    max_degree = min(max_degree, n)
    min_degree = max(1, min(min_degree, max_degree))
    g = SplitMix64(seed)
    owners = [g.below(2) for _ in range(n)]
    pris = [1 + g.below(priorities) for _ in range(n)]
    succs = []
    for v in range(n):
        d = min_degree + g.below(max_degree - min_degree + 1)
        picks = SplitMix64(derive_seed(seed, (v << 1) | 1)).sample(n, d)
        succs.append(sorted(picks))
    return OddFairGame(owners, pris, succs)
