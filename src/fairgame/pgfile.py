"""PGSolver-format games with a live-edge extension, plus instance generation.

Grammar, whitespace tolerant, no comments:

    parity <max-id>;                      (optional header)
    <id> <priority> <owner> <s>(,<s>)* ("<name>")?;    (one per vertex)
    live <src> <dst>;                     (zero or more, after node records)

Owner 0 is Even, 1 is Odd. Input ids are remapped to dense 0-based ids in
ascending id order; ids that are already 0..n-1 in file order (as
`write_game` writes them) are kept as they are. Originals are kept on the
game for output.
"""

from __future__ import annotations

import math
import re
from itertools import chain
from typing import Optional

from .game import ODD, OddFairGame, gc_paused
from .rng import SplitMix64, derive_seed


class ParseError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# One node record with its surrounding whitespace and ';'. A line matches iff
# it strips to `stmt;` with `stmt` a node record, so only lines that fail it
# (blank, header, `live`, or an error) take the statement-by-statement path.
_NODE_LINE = re.compile(
    r"\s*(\d+)\s+(\d+)\s+([01])\s+(\d+(?:\s*,\s*\d+)*)(?:\s+\"([^\"]*)\")?\s*;\s*"
)


def parse_game(text) -> OddFairGame:
    """Parse a game; raises ParseError with a line number on any defect."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    with gc_paused():
        return _parse(text)


def _parse(text: str) -> OddFairGame:
    # one column per field, in file order; priorities and owners stay digit strings until the end
    ids, priorities, owners, successors, names = [], [], [], [], []
    live_records = []  # (src, dst, line)
    seen = None  # the ids so far, once they stop being 0, 1, 2, ... in file order
    seen_header = False
    match = _NODE_LINE.fullmatch
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = match(line)
        if m is not None:
            vid, pri, owner, succ, name = m.groups()
            vid = int(vid)
            if seen is None and vid != len(ids):
                seen = set(ids)
            if seen is not None:
                if vid in seen:
                    raise ParseError(f"duplicate vertex id {vid}", lineno)
                seen.add(vid)
            ids.append(vid)
            priorities.append(pri)
            owners.append(owner)
            try:
                successors.append(tuple(map(int, succ.split(","))))
            except ValueError:  # \s also matches U+001F, which int() does not strip
                successors.append(tuple(int(piece.strip()) for piece in succ.split(",")))
            names.append(name)
            continue
        line = line.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParseError("missing ';'", lineno)
        stmt = line[:-1].strip()
        if stmt.startswith("parity"):
            if seen_header or ids:
                raise ParseError("unexpected 'parity' header", lineno)
            if not stmt[len("parity"):].strip().isdecimal():
                raise ParseError("malformed 'parity' header", lineno)
            seen_header = True
        elif stmt.startswith("live"):
            parts = stmt[len("live"):].split()
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise ParseError("malformed 'live' line", lineno)
            live_records.append((int(parts[0]), int(parts[1]), lineno))
        else:
            raise ParseError("malformed node record", lineno)

    if not ids:
        raise ParseError("no vertex records")
    n = len(ids)
    priorities, owners = list(map(int, priorities)), list(map(int, owners))
    if seen is None:  # dense and ordered: ids are already the indices
        index = range(n)
        if max(chain.from_iterable(successors)) >= n:
            vid, s = next((v, s) for v, ws in enumerate(successors) for s in ws if s >= n)
            raise ParseError(f"successor {s} of {vid} does not exist", _record_line(text, vid))
    else:  # remap to dense ids in ascending id order
        perm = sorted(range(n), key=ids.__getitem__)
        ids = [ids[p] for p in perm]
        index = dict(zip(ids, range(n)))
        remapped = []
        for vid, p in zip(ids, perm):
            try:
                remapped.append(tuple(map(index.__getitem__, successors[p])))
            except KeyError as exc:
                raise ParseError(
                    f"successor {exc.args[0]} of {vid} does not exist", _record_line(text, vid)
                ) from None
        successors = remapped
        priorities, owners, names = ([col[p] for p in perm] for col in (priorities, owners, names))
    live = []
    for src, dst, lineno in live_records:
        if src not in index:
            raise ParseError(f"live edge references nonexistent source {src}", lineno)
        if dst not in index:
            raise ParseError(f"live edge references nonexistent target {dst}", lineno)
        u, w = index[src], index[dst]
        if owners[u] != ODD:
            raise ParseError(f"live edge source owned by Even at {src}", lineno)
        if w not in successors[u]:
            raise ParseError(f"live edge ({src}, {dst}) not in the edge set", lineno)
        live.append((u, w))
    return OddFairGame(owners, priorities, successors, live, names, ids)


def _record_line(text: str, vid: int) -> int:
    """The line of the node record of `vid`; only read on the way to an error."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _NODE_LINE.fullmatch(line)
        if m is not None and int(m.group(1)) == vid:
            return lineno


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
