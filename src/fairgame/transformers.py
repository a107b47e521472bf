"""One-step predecessor operators over a subgame view.

All operators quantify only over the view's active vertices and edges and
return subsets of the active set. The public functions work on Region values;
the numpy kernel layer underneath is shared with the fixed-point solvers.
"""

from __future__ import annotations

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


def region_to_np(r: Region) -> np.ndarray:
    return mask_to_np(r.mask, r.n)


def np_to_region(arr: np.ndarray) -> Region:
    return Region(len(arr), np_to_mask(arr))


def _edges(rows):
    """(sources, targets) of the edges in adjacency rows, as int64 arrays in row order."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    targets = np.fromiter(chain.from_iterable(rows), np.int64)
    return np.arange(len(rows), dtype=np.int64).repeat(lengths), targets


class Kernels:
    """Vectorized operators bound to one view (fixed active set).

    With use_live=False the live-edge operators see an empty live set, which
    turns the fair operators into their classical counterparts. A count
    never exceeds `deg`, so `cpre` is one comparison of a count with `need`.
    """

    def __init__(self, view: SubgameView, use_live: bool = True):
        game = view.game
        esrc, edst = _edges(game.succ)
        lsrc, ldst = _edges(game.live_succ)
        owner = np.asarray(game.owner, dtype=np.int8)
        n = game.n
        self.n = n
        self.priority = np.asarray(game.level, dtype=np.int64)
        self.active = region_to_np(view.active)
        keep = self.active[esrc] & self.active[edst]
        self.esrc = esrc[keep]
        self.edst = edst[keep]
        self.deg = np.bincount(self.esrc, minlength=n).astype(np.float64)
        lkeep = self.active[lsrc] & self.active[ldst] if use_live else np.zeros(len(lsrc), bool)
        self.lsrc, self.ldst = lsrc[lkeep], ldst[lkeep]
        self.ldeg = np.bincount(self.lsrc, minlength=n).astype(np.float64)
        self.mask = (self.active & (owner == EVEN), self.active & (owner == ODD))
        # cpre(p, s) needs one edge into s at p's vertices and all of them at the opponent's
        every = np.where(self.active, self.deg, np.inf)
        self.need = tuple(np.where(mask, 1.0, every) for mask in self.mask)
        # with no live edge, lpre_exists is empty and lpre_forall every Odd vertex
        self.live_free = (np.zeros(n, bool), self.mask[ODD]) if len(self.lsrc) == 0 else None

    def count_in(self, s: np.ndarray) -> np.ndarray:
        if len(self.esrc) == 0:
            return np.zeros(self.n)
        return np.bincount(self.esrc, weights=s[self.edst], minlength=self.n)

    def live_count_in(self, s: np.ndarray) -> np.ndarray:
        return np.bincount(self.lsrc, weights=s[self.ldst], minlength=self.n)

    # -- operator kernels (bool arrays in, bool arrays out) ----------------

    def pre_exists(self, player: int, s: np.ndarray) -> np.ndarray:
        return (self.count_in(s) > 0) & self.mask[player]

    def pre_forall(self, player: int, s: np.ndarray) -> np.ndarray:
        return (self.count_in(s) == self.deg) & self.mask[player]

    def lpre_exists(self, s: np.ndarray) -> np.ndarray:
        if self.live_free is not None:
            return self.live_free[0]
        return (self.live_count_in(s) > 0) & self.mask[ODD]

    def lpre_forall(self, s: np.ndarray) -> np.ndarray:
        # vacuously includes Odd vertices without live edges
        if self.live_free is not None:
            return self.live_free[1]
        return (self.live_count_in(s) == self.ldeg) & self.mask[ODD]

    def cpre(self, player: int, s: np.ndarray) -> np.ndarray:
        return self.cpre_of(player, self.count_in(s))

    def apre(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.apre_of(self.cpre(EVEN, s), self.cpre(EVEN, t), self.lpre_exists(t))

    def npre(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.npre_of(self.cpre(ODD, s), self.cpre(ODD, t), self.lpre_forall(t))

    # -- the same operators over parts that a caller can keep per operand --

    def cpre_of(self, player: int, cs: np.ndarray) -> np.ndarray:
        """cpre(player, s) from cs = count_in(s)."""
        return cs >= self.need[player]

    def apre_of(self, ps: np.ndarray, pt: np.ndarray, lt: np.ndarray) -> np.ndarray:
        """apre(s, t) from ps, pt = cpre(EVEN, s), cpre(EVEN, t) and lt = lpre_exists(t)."""
        # lt lies in Odd's vertices, where ps is pre_forall(ODD, s)
        return pt | (lt & ps)

    def npre_of(self, ps: np.ndarray, pt: np.ndarray, lt: np.ndarray) -> np.ndarray:
        """npre(s, t) from ps, pt = cpre(ODD, s), cpre(ODD, t) and lt = lpre_forall(t)."""
        # at Odd's vertices ps is pre_exists(ODD, s)
        return pt & (self.mask[EVEN] | lt | ps)


def _check_operand(view: SubgameView, r: Region) -> np.ndarray:
    if not r.issubset(view.active):
        raise ValueError("operand is not a subset of the active set")
    return region_to_np(r)


def pre_exists(view: SubgameView, player: int, s: Region) -> Region:
    return np_to_region(Kernels(view).pre_exists(player, _check_operand(view, s)))


def pre_forall(view: SubgameView, player: int, s: Region) -> Region:
    return np_to_region(Kernels(view).pre_forall(player, _check_operand(view, s)))


def lpre_exists(view: SubgameView, s: Region) -> Region:
    return np_to_region(Kernels(view).lpre_exists(_check_operand(view, s)))


def lpre_forall(view: SubgameView, s: Region) -> Region:
    return np_to_region(Kernels(view).lpre_forall(_check_operand(view, s)))


def cpre(view: SubgameView, player: int, s: Region) -> Region:
    return np_to_region(Kernels(view).cpre(player, _check_operand(view, s)))


def apre(view: SubgameView, s: Region, t: Region) -> Region:
    return np_to_region(
        Kernels(view).apre(_check_operand(view, s), _check_operand(view, t))
    )


def npre(view: SubgameView, s: Region, t: Region) -> Region:
    return np_to_region(
        Kernels(view).npre(_check_operand(view, s), _check_operand(view, t))
    )
