"""Seeded instance generators for the benchmark, written apart from the program.

Every generator is a pure function of its arguments and returns the game as
PGSolver text (`id priority owner succ,succ;` records, no live edges); live
edges are added afterwards by `fairgame mutate`. Randomness comes from a
local SplitMix64 so that corpora do not depend on the Python version.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
DEGREES = (1, 3)  # out-degree range of random games
MAX_EDGES = 20  # edges of a small game; the exhaustive certifier's bound


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        return self.next() % k

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def sub_seed(seed: int, *parts: int) -> int:
    """A seed for one instance, derived from the run seed and its position."""
    g = SplitMix64(seed)
    for p in parts:
        g = SplitMix64(g.next() ^ (p * 0xD1B54A32D192ED03 & MASK64))
    return g.next()


def format_game(owners, priorities, succs) -> str:
    lines = [f"parity {len(owners) - 1};"]
    for v, (o, p, ws) in enumerate(zip(owners, priorities, succs)):
        lines.append(f"{v} {p} {o} {','.join(map(str, ws))};")
    return "\n".join(lines) + "\n"


def random_game(n: int, priorities: int, seed: int) -> str:
    """A random dead-end-free game in O(n).

    Owners are fair coin flips. Priorities are dense: each of 1..priorities
    is given to at least one vertex (n >= priorities), the rest are uniform.
    Out-degrees are uniform in DEGREES, targets distinct.
    """
    g = SplitMix64(seed)
    owners = [g.below(2) for _ in range(n)]
    pris = [1 + (v if v < priorities else g.below(priorities)) for v in range(n)]
    for v in range(n - 1, 0, -1):  # spread the forced values over the ids
        j = g.below(v + 1)
        pris[v], pris[j] = pris[j], pris[v]
    succs = []
    for _ in range(n):
        d = min(g.between(*DEGREES), n)
        picks = set()
        while len(picks) < d:
            picks.add(g.below(n))
        succs.append(sorted(picks))
    return format_game(owners, pris, succs)


def ladder(k: int, *, dual: bool = False, offset: int = 0) -> str:
    """The k-rung ladder, its dual, or either with priorities raised by offset.

    Vertex 2i is a_i and 2i-1 is t_i. Rung i = 1..k: a_i is Even with
    priority 1, a self-loop and an edge to t_i; t_i is Odd with priority 2
    and its only edge goes to a_{i-1}. a_0 is Odd with priority 1 and a
    self-loop. Odd wins every vertex of the ladder. The dual swaps owners and
    raises every priority by one, and Even wins every vertex of it. An even
    offset keeps both winners and leaves priorities 1..offset empty.
    """
    if offset % 2:
        raise ValueError("offset must be even")
    n = 2 * k + 1
    owners, pris, succs = [0] * n, [0] * n, [None] * n
    owners[0], pris[0], succs[0] = 1, 1, [0]
    for i in range(1, k + 1):
        a, t = 2 * i, 2 * i - 1
        owners[a], pris[a], succs[a] = 0, 1, [t, a]
        owners[t], pris[t], succs[t] = 1, 2, [2 * (i - 1)]
    if dual:
        owners = [1 - o for o in owners]
        pris = [p + 1 for p in pris]
    return format_game(owners, [p + offset for p in pris], succs)


def small_game(seed: int) -> str:
    """A game with 2..9 vertices, out-degree 1..3 and at most MAX_EDGES edges,
    so that every artifact stays inside the exhaustive certifier's bound."""
    g = SplitMix64(seed)
    n = g.between(2, 9)
    priorities = g.between(1, 5)
    owners = [g.below(2) for _ in range(n)]
    pris = [1 + g.below(priorities) for _ in range(n)]
    budget = MAX_EDGES - n  # every vertex keeps at least one edge
    succs = []
    for _ in range(n):
        extra = min(g.below(3), budget, n - 1)
        budget -= extra
        picks = set()
        while len(picks) < 1 + extra:
            picks.add(g.below(n))
        succs.append(sorted(picks))
    return format_game(owners, pris, succs)
