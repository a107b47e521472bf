"""One-step predecessor operators over a subgame view.

All operators quantify only over the view's active vertices and edges and
return subsets of the active set. The public functions work on Region values;
the numpy kernel layer underneath is shared with the fixed-point solvers.
"""

from __future__ import annotations

import numpy as np

from .game import EVEN, ODD, Region, SubgameView


def region_to_np(r: Region) -> np.ndarray:
    nbytes = (r.n + 7) // 8
    packed = np.frombuffer(r.mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little")[: r.n].astype(bool)


def np_to_region(arr: np.ndarray) -> Region:
    packed = np.packbits(arr.astype(bool), bitorder="little")
    return Region(len(arr), int.from_bytes(packed.tobytes(), "little"))


class Kernels:
    """Vectorized operators bound to one view (fixed active set).

    With use_live=False the live-edge operators see an empty live set, which
    turns the fair operators into their classical counterparts.
    """

    def __init__(self, view: SubgameView, use_live: bool = True):
        game = view.game
        esrc, edst, lsrc, ldst, owner, pri = game.arrays()
        n = game.n
        self.n = n
        self.priority = pri
        self.active = region_to_np(view.active)
        keep = self.active[esrc] & self.active[edst] if len(esrc) else np.zeros(0, bool)
        self.esrc = esrc[keep]
        self.edst = edst[keep]
        self.deg = np.bincount(self.esrc, minlength=n).astype(np.float64)
        if use_live and len(lsrc):
            lkeep = self.active[lsrc] & self.active[ldst]
            self.lsrc = lsrc[lkeep]
            self.ldst = ldst[lkeep]
        else:
            self.lsrc = np.zeros(0, dtype=np.int64)
            self.ldst = np.zeros(0, dtype=np.int64)
        self.ldeg = np.bincount(self.lsrc, minlength=n).astype(np.float64)
        self.even_mask = self.active & (owner == EVEN)
        self.odd_mask = self.active & (owner == ODD)

    def mask_for(self, player: int) -> np.ndarray:
        return self.even_mask if player == EVEN else self.odd_mask

    def count_in(self, s: np.ndarray) -> np.ndarray:
        if len(self.esrc) == 0:
            return np.zeros(self.n)
        return np.bincount(self.esrc, weights=s[self.edst], minlength=self.n)

    def live_count_in(self, s: np.ndarray) -> np.ndarray:
        if len(self.lsrc) == 0:
            return np.zeros(self.n)
        return np.bincount(self.lsrc, weights=s[self.ldst], minlength=self.n)

    # -- operator kernels (bool arrays in, bool arrays out) ----------------

    def pre_exists(self, player: int, s: np.ndarray) -> np.ndarray:
        return (self.count_in(s) > 0) & self.mask_for(player)

    def pre_forall(self, player: int, s: np.ndarray) -> np.ndarray:
        return (self.count_in(s) == self.deg) & self.mask_for(player)

    def lpre_exists(self, s: np.ndarray) -> np.ndarray:
        return (self.live_count_in(s) > 0) & self.odd_mask

    def lpre_forall(self, s: np.ndarray) -> np.ndarray:
        # vacuously includes Odd vertices without live edges
        return (self.live_count_in(s) == self.ldeg) & self.odd_mask

    def cpre(self, player: int, s: np.ndarray) -> np.ndarray:
        return self.cpre_of(player, self.count_in(s))

    def apre(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.apre_of(self.count_in(s), t)

    def npre(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.npre_of(self.count_in(s), t)

    # -- the same operators over cs = count_in(s), so a caller can share it --

    def cpre_of(self, player: int, cs: np.ndarray) -> np.ndarray:
        return ((cs > 0) & self.mask_for(player)) | (
            (cs == self.deg) & self.mask_for(1 - player)
        )

    def apre_of(self, cs: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.cpre(EVEN, t) | (self.lpre_exists(t) & (cs == self.deg) & self.odd_mask)

    def npre_of(self, cs: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self.cpre(ODD, t) & (
            self.even_mask | self.lpre_forall(t) | ((cs > 0) & self.odd_mask)
        )


def kernels(view: SubgameView, use_live: bool = True) -> Kernels:
    if view._kernels is None:
        view._kernels = {}
    key = bool(use_live)
    if key not in view._kernels:
        view._kernels[key] = Kernels(view, use_live)
    return view._kernels[key]


def _check_operand(view: SubgameView, r: Region) -> np.ndarray:
    if not r.issubset(view.active):
        raise ValueError("operand is not a subset of the active set")
    return region_to_np(r)


def pre_exists(view: SubgameView, player: int, s: Region) -> Region:
    return np_to_region(kernels(view).pre_exists(player, _check_operand(view, s)))


def pre_forall(view: SubgameView, player: int, s: Region) -> Region:
    return np_to_region(kernels(view).pre_forall(player, _check_operand(view, s)))


def lpre_exists(view: SubgameView, s: Region) -> Region:
    return np_to_region(kernels(view).lpre_exists(_check_operand(view, s)))


def lpre_forall(view: SubgameView, s: Region) -> Region:
    return np_to_region(kernels(view).lpre_forall(_check_operand(view, s)))


def cpre(view: SubgameView, player: int, s: Region) -> Region:
    return np_to_region(kernels(view).cpre(player, _check_operand(view, s)))


def apre(view: SubgameView, s: Region, t: Region) -> Region:
    return np_to_region(
        kernels(view).apre(_check_operand(view, s), _check_operand(view, t))
    )


def npre(view: SubgameView, s: Region, t: Region) -> Region:
    return np_to_region(
        kernels(view).npre(_check_operand(view, s), _check_operand(view, t))
    )
