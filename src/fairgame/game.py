"""Core game graph types: players, bit-set regions, games with live edges, subgame views.

Vertices are dense 0-based ints internally; original input ids and optional
names are kept for output. Priorities are normalized to be >= 1 (a uniform +2
shift is applied iff any input priority is 0, which preserves parity). The
solvers run on levels, a dense relabelling of the normalized priorities that
keeps their order and parity. A game is valid once its constructor or a
derivation returns, and the solvers, views and `write_game` rely on that.
"""

from __future__ import annotations

import copy
import gc
import time
from contextlib import contextmanager
from itertools import chain, compress
from typing import Iterable, Iterator, Optional, Sequence, Tuple

EVEN = 0
ODD = 1


@contextmanager
def gc_paused():
    """Run the block with the cyclic collector off, then restore the caller's state.

    It wraps building a game and the whole of `fairgame solve` and `check`.
    Both free what they make by reference counting, so the collections they
    would set off find nothing to free, yet each full one walks every tuple
    of the game. A pause around the solve alone only moves those collections
    to the output that follows, while the game and its artifacts are alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_frames(root, call):
    """Return what the generator frame `root` returns, keeping the frames it calls on a list.

    A frame yields an argument of `call`, which makes the frame it calls, and is sent its return value.
    """
    stack = [root]
    sent = None
    while stack:
        try:
            arg = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            sent = done.value
        else:
            stack.append(call(arg))
            sent = None
    return sent


# "0"/"1" characters to the bytes 0/1, the selectors of `itertools.compress`
_BIT = bytes.maketrans(b"01", b"\x00\x01")

# a double quote ends a name in a game file; the parser's `str.splitlines` breaks at the rest
_UNWRITABLE = frozenset('"\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029')


class SolverTimeout(Exception):
    """Raised by a solver when its cooperative deadline expires."""


class Deadline:
    """Cooperative wall-clock deadline polled inside solver loops; `Deadline(None)` never expires."""

    __slots__ = ("at",)

    def __init__(self, seconds: Optional[float]):
        self.at = None if seconds is None else time.perf_counter() + seconds

    def poll(self) -> None:
        if self.at is not None and time.perf_counter() > self.at:
            raise SolverTimeout


class Region:
    """Immutable vertex set over a fixed universe [0, n), stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        self.n = n
        self.mask = mask

    @classmethod
    def empty(cls, n: int) -> "Region":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "Region":
        return cls(n, (1 << n) - 1)

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "Region":
        # linear in n: or-ing in 1 << v would copy the mask once per member
        bits = bytearray(b"0" * n)
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside universe [0, {n})")
            bits[v] = 49  # "1"
        bits.reverse()
        return cls(n, int(bits, 2) if bits else 0)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        # linear in n and in C: peeling the low bit off the int would copy it once per member
        return compress(range(self.n), self.bits().encode().translate(_BIT))

    def bits(self) -> str:
        """The mask as "0"/"1" characters, vertex 0 first, up to its highest member."""
        return bin(self.mask)[:1:-1]

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Region) and self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def _check(self, other: "Region") -> None:
        if self.n != other.n:
            raise ValueError("regions over different universes")

    def __or__(self, other: "Region") -> "Region":
        self._check(other)
        return Region(self.n, self.mask | other.mask)

    def __and__(self, other: "Region") -> "Region":
        self._check(other)
        return Region(self.n, self.mask & other.mask)

    def __sub__(self, other: "Region") -> "Region":
        self._check(other)
        return Region(self.n, self.mask & ~other.mask)

    def complement(self) -> "Region":
        return Region(self.n, ~self.mask & ((1 << self.n) - 1))

    def issubset(self, other: "Region") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "Region") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def __repr__(self) -> str:
        return f"Region({self.n}, {{{', '.join(map(str, self))}}})"


class OddFairGame:
    """A parity game with designated live edges out of Odd vertices.

    `priorities` passed to the constructor are the original input priorities;
    `self.priority` holds the normalized ones (>= 1). `self.level` relabels
    them densely: the lowest present priority becomes 1 if odd and 2 if even,
    and each higher one the smallest value of its own parity above the level
    below it. Classes, their order and their parity are unchanged, and
    `level == priority` on a game whose priorities leave no removable gap.
    Successor order is input order. The structure is immutable after
    construction.

    The constructor raises ValueError on the first defect: no vertex, a
    successor out of range, names or original ids not one per vertex, a name
    no game file can hold, a negative or repeated id, a dead end, or a live
    edge that is no edge out of an Odd vertex. So every game it builds
    round-trips through `write_game` and `parse_game`. `with_live` and
    `with_priorities` share the structure and check only their new column.
    """

    def __init__(
        self,
        owners: Sequence[int],
        priorities: Sequence[int],
        successors: Sequence[Sequence[int]],
        live_edges: Iterable[tuple] = (),
        names: Optional[Sequence[Optional[str]]] = None,
        original_ids: Optional[Sequence[int]] = None,
    ):
        n = len(owners)
        if not (len(priorities) == len(successors) == n):
            raise ValueError("owners, priorities, successors must have equal length")
        if n == 0:
            raise ValueError("a game needs at least one vertex")
        with gc_paused():
            self._set_priorities(priorities)
            self.owner = tuple(owners)
            if self.owner.count(EVEN) + self.owner.count(ODD) != n:
                raise ValueError("owner must be 0 (Even) or 1 (Odd)")
            self.n = n
            self.succ = tuple(map(tuple, successors))
            self.names = tuple(names) if names is not None else (None,) * n
            self.original_ids = tuple(original_ids) if original_ids is not None else tuple(range(n))
            edges = chain.from_iterable
            if min(edges(self.succ), default=0) < 0 or max(edges(self.succ), default=-1) >= n:
                v, w = next((v, w) for v, ws in enumerate(self.succ) for w in ws if not 0 <= w < n)
                raise ValueError(f"successor {w} of vertex {v} out of range")
            ids = self.original_ids
            if len(self.names) != n or len(ids) != n:
                column = "names" if len(self.names) != n else "original ids"
                raise ValueError(f"{column} must have one entry per vertex")
            if not _UNWRITABLE.isdisjoint("".join(filter(None, self.names))):
                v, ch = next((v, c) for v, s in enumerate(self.names) for c in s or "" if c in _UNWRITABLE)
                raise ValueError(f"name of vertex {v} contains {ch!r}")
            if original_ids is not None and (min(ids) < 0 or len(set(ids)) < n):
                first: dict = {}
                v = next(v for v, i in enumerate(ids) if i < 0 or first.setdefault(i, v) != v)
                defect = "negative" if ids[v] < 0 else "repeated"
                raise ValueError(f"original id {ids[v]} of vertex {v} is {defect}")
            if not all(self.succ):
                raise ValueError(f"dead end at {self.succ.index(())}")
            self._set_live(live_edges)
            pred = [[] for _ in range(n)]
            for v, ws in enumerate(self.succ):
                for w in ws:
                    pred[w].append(v)
            self.pred = tuple(map(tuple, pred))

    def with_live(self, live_edges: Iterable[tuple]) -> "OddFairGame":
        """This game with `live_edges` in place of its own, which alone are checked."""
        return self._derive(OddFairGame._set_live, live_edges)

    def with_priorities(self, priorities: Sequence[int]) -> "OddFairGame":
        """This game with other input priorities, which alone are checked."""
        if len(priorities) != self.n:
            raise ValueError("owners, priorities, successors must have equal length")
        return self._derive(OddFairGame._set_priorities, priorities)

    def _derive(self, block, column) -> "OddFairGame":
        game = copy.copy(self)  # shares every tuple the block does not replace
        with gc_paused():
            block(game, column)
        return game

    def _set_priorities(self, priorities: Sequence[int]) -> None:
        self.original_priority = tuple(priorities)
        if min(self.original_priority) < 0:
            raise ValueError("priorities must be non-negative")
        self.shift = 2 if 0 in self.original_priority else 0
        self.priority = tuple(p + 2 for p in priorities) if self.shift else self.original_priority
        self.level = _dense_levels(self.priority)

    def _set_live(self, live_edges: Iterable[tuple]) -> None:
        n = self.n
        self.live = frozenset((u, w) for (u, w) in live_edges)
        by_source, by_target = {}, {}
        for u, w in sorted(self.live):
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError(f"live edge ({u}, {w}) references a nonexistent vertex")
            if self.owner[u] != ODD:
                raise ValueError(f"live edge source owned by Even at {u}")
            if u not in by_source:  # a set: one tuple scan per live edge is quadratic in the degree
                by_source[u], edges_of_u = [], set(self.succ[u])
            if w not in edges_of_u:
                raise ValueError(f"live edge ({u}, {w}) not in the edge set")
            by_source[u].append(w)
            by_target.setdefault(w, []).append(u)
        # vertices without live edges share the empty tuple
        live_succ, live_pred = [()] * n, [()] * n
        for u, ws in by_source.items():
            live_succ[u] = tuple(ws)
        for w, us in by_target.items():
            live_pred[w] = tuple(us)
        self.live_succ, self.live_pred = tuple(live_succ), tuple(live_pred)

    # -- structural queries ------------------------------------------------

    def vertices(self, player: Optional[int] = None) -> Region:
        if player is None:
            return Region.full(self.n)
        return Region.of(self.n, (v for v in range(self.n) if self.owner[v] == player))

    def label(self, v: int) -> str:
        name = self.names[v]
        return name if name is not None else str(self.original_ids[v])


def _dense_levels(priority: Tuple[int, ...]) -> Tuple[int, ...]:
    """`OddFairGame.level` of the normalized priorities."""
    image = {}
    last = 0
    for p in sorted(set(priority)):
        last += 1 if (last + 1) % 2 == p % 2 else 2
        image[p] = last
    return tuple(map(image.__getitem__, priority))


def least_even_upperbound(game: OddFairGame, active: Optional[Region] = None) -> int:
    """Smallest even l >= 2 with no level (`game.level`) above l among the given vertices."""
    verts = active if active is not None else Region.full(game.n)
    top = max((game.level[v] for v in verts), default=0)
    l = top if top % 2 == 0 else top + 1
    return max(l, 2)


def priority_class(game: OddFairGame, i: int, active: Optional[Region] = None) -> Region:
    verts = active if active is not None else Region.full(game.n)
    return Region.of(game.n, (v for v in verts if game.priority[v] == i))


class SubgameView:
    """A non-copying restriction of a game to an active vertex set.

    Construction checks dead-end-freeness of the restriction: callers are
    expected to restrict only to traps.
    """

    __slots__ = ("game", "active")

    def __init__(self, game: OddFairGame, active: Region):
        if active.n != game.n:
            raise ValueError("active region universe does not match game")
        # a game has no dead ends, so its full view has none to look for
        if active.mask != (1 << game.n) - 1:
            bits = active.bits().ljust(game.n, "0")  # `w in active` would shift the whole mask
            for v in active:
                for w in game.succ[v]:
                    if bits[w] == "1":
                        break
                else:
                    raise ValueError(f"restriction creates a dead end at {v}")
        self.game = game
        self.active = active

    @classmethod
    def full(cls, game: OddFairGame) -> "SubgameView":
        return cls(game, Region.full(game.n))

    @property
    def n(self) -> int:
        return self.game.n

    def vertices(self, player: Optional[int] = None) -> Region:
        if player is None:
            return self.active
        return self.game.vertices(player) & self.active
