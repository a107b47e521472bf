"""One-step predecessor operators over a subgame view.

All operators quantify only over the view's active vertices and edges and
return subsets of the active set. The public functions work on Region
values; `Kernels` underneath, which the fixed-point solvers share, works on
their `Region.mask` ints and uses numpy only inside, to count edges.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np

from .game import EVEN, ODD, Region, SubgameView


def mask_to_np(mask: int, n: int) -> np.ndarray:
    """The bitmask of a set over [0, n) as a bool array, bit v at index v."""
    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").view(bool)


def np_to_mask(arr: np.ndarray) -> int:
    """The bitmask of the true entries of a bool array."""
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def _edges(rows):
    """(sources, targets) of the edges in adjacency rows, as int64 arrays in row order."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    targets = np.fromiter(chain.from_iterable(rows), np.int64)
    return np.arange(len(rows), dtype=np.int64).repeat(lengths), targets


class Kernels:
    """Operators bound to one view (fixed active set), on `Region.mask` ints.

    Operands and results are bitmasks, bit v for vertex v. `count_in(s)` and
    `live_count_in(s)` unpack their operand and count, per vertex, the
    (live) edges into s as a float64 array; `cpre_of` and `lpre_of` pack the
    comparison of such counts with `need` and `lneed` into a mask. A count
    never exceeds its degree, so each of these operators is one comparison.
    With use_live=False the live-edge operators see an empty live set, which
    turns the fair operators into their classical counterparts.
    """

    def __init__(self, view: SubgameView, use_live: bool = True):
        game = view.game
        esrc, edst = _edges(game.succ)
        lsrc, ldst = _edges(game.live_succ)
        n = game.n
        self.n = n
        self.level = np.asarray(game.level, dtype=np.int64)
        self.active = view.active.mask
        active = mask_to_np(self.active, n)
        keep = active[esrc] & active[edst]
        self.esrc = esrc[keep]
        self.edst = edst[keep]
        self.deg = np.bincount(self.esrc, minlength=n).astype(np.float64)
        lkeep = active[lsrc] & active[ldst] if use_live else np.zeros(len(lsrc), bool)
        self.lsrc, self.ldst = lsrc[lkeep], ldst[lkeep]
        self.ldeg = np.bincount(self.lsrc, minlength=n).astype(np.float64)
        odd = active & (np.asarray(game.owner, dtype=np.int8) == ODD)
        self._odd = odd
        self.mask = (self.active & ~np_to_mask(odd), np_to_mask(odd))
        # cpre(p, s) needs one edge into s at p's vertices and all of them at the opponent's
        every = np.where(active, self.deg, np.inf)
        self.need = (np.where(active ^ odd, 1.0, every), np.where(odd, 1.0, every))
        # with no live edge, lpre_exists is empty and lpre_forall every Odd vertex
        self.live_free = (0, self.mask[ODD]) if len(self.lsrc) == 0 else None

    @cached_property
    def lneed(self) -> tuple:
        # lpre_exists(s) needs one live edge into s at Odd's vertices, lpre_forall(s) all of them
        return np.where(self._odd, 1.0, np.inf), np.where(self._odd, self.ldeg, np.inf)

    def count_in(self, s: int) -> np.ndarray:
        return np.bincount(self.esrc, weights=mask_to_np(s, self.n)[self.edst], minlength=self.n)

    def live_count_in(self, s: int) -> np.ndarray:
        return np.bincount(self.lsrc, weights=mask_to_np(s, self.n)[self.ldst], minlength=self.n)

    # -- operator kernels (masks in, masks out) ------------------------------

    def pre_exists(self, player: int, s: int) -> int:
        return np_to_mask(self.count_in(s) > 0) & self.mask[player]

    def pre_forall(self, player: int, s: int) -> int:
        return np_to_mask(self.count_in(s) == self.deg) & self.mask[player]

    def lpre_exists(self, s: int) -> int:
        if self.live_free is not None:
            return self.live_free[0]
        return self.lpre_of(EVEN, self.live_count_in(s))

    def lpre_forall(self, s: int) -> int:
        # vacuously includes Odd vertices without live edges
        if self.live_free is not None:
            return self.live_free[1]
        return self.lpre_of(ODD, self.live_count_in(s))

    def cpre(self, player: int, s: int) -> int:
        return self.cpre_of(player, self.count_in(s))

    def apre(self, s: int, t: int) -> int:
        return self.apre_of(self.cpre(EVEN, s), self.cpre(EVEN, t), self.lpre_exists(t))

    def npre(self, s: int, t: int) -> int:
        return self.npre_of(self.cpre(ODD, s), self.cpre(ODD, t), self.lpre_forall(t))

    # -- the same operators over parts that a caller can keep per operand --

    def cpre_of(self, player: int, cs: np.ndarray) -> int:
        """cpre(player, s) from cs = count_in(s)."""
        return np_to_mask(cs >= self.need[player])

    def lpre_of(self, side: int, lcs: np.ndarray) -> int:
        """lpre_exists(s) for side EVEN, lpre_forall(s) for side ODD, from lcs = live_count_in(s)."""
        return np_to_mask(lcs >= self.lneed[side])

    def apre_of(self, ps: int, pt: int, lt: int) -> int:
        """apre(s, t) from ps, pt = cpre(EVEN, s), cpre(EVEN, t) and lt = lpre_exists(t)."""
        # lt lies in Odd's vertices, where ps is pre_forall(ODD, s)
        return pt | (lt & ps)

    def npre_of(self, ps: int, pt: int, lt: int) -> int:
        """npre(s, t) from ps, pt = cpre(ODD, s), cpre(ODD, t) and lt = lpre_forall(t)."""
        # at Odd's vertices ps is pre_exists(ODD, s)
        return pt & (self.mask[EVEN] | lt | ps)


def _check_operand(view: SubgameView, r: Region) -> int:
    if not r.issubset(view.active):
        raise ValueError("operand is not a subset of the active set")
    return r.mask


def pre_exists(view: SubgameView, player: int, s: Region) -> Region:
    return Region(view.n, Kernels(view).pre_exists(player, _check_operand(view, s)))


def pre_forall(view: SubgameView, player: int, s: Region) -> Region:
    return Region(view.n, Kernels(view).pre_forall(player, _check_operand(view, s)))


def lpre_exists(view: SubgameView, s: Region) -> Region:
    return Region(view.n, Kernels(view).lpre_exists(_check_operand(view, s)))


def lpre_forall(view: SubgameView, s: Region) -> Region:
    return Region(view.n, Kernels(view).lpre_forall(_check_operand(view, s)))


def cpre(view: SubgameView, player: int, s: Region) -> Region:
    return Region(view.n, Kernels(view).cpre(player, _check_operand(view, s)))


def apre(view: SubgameView, s: Region, t: Region) -> Region:
    return Region(view.n, Kernels(view).apre(_check_operand(view, s), _check_operand(view, t)))


def npre(view: SubgameView, s: Region, t: Region) -> Region:
    return Region(view.n, Kernels(view).npre(_check_operand(view, s), _check_operand(view, t)))
