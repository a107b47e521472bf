"""Nested fixed-point solvers for the two players.

Both solvers walk the same alternating mu/nu ladder over levels l, l-1,
..., 1 where l is the least even upper bound of the active levels. Levels
are the game's dense relabelling of its priorities (`OddFairGame.level`,
same order and parity), so the ladder has one level per present priority
class, not one per priority value, and trace addresses (FpTrace.l, counters,
snapshot keys, rank components) name levels. The Odd solver computes the
vertices Odd wins under the fairness assumption on live edges; the Even
solver is its dual. Passing use_live=False empties the live-edge operators,
which yields the classical (fairness-free) winning regions.

A solve can record, per vertex, the iteration index at which the vertex first
entered each mu variable. The inner indices of a vertex come from the last
pass of each enclosing nu variable, the one that confirms its fixed point,
in the iteration of each enclosing mu variable where the vertex entered it.
Those indices are the rank components used to build strategy templates:
component order is outermost level first.

Iterates, the priority-class masks and every operator part are the
`Region.mask` ints that `transformers.Kernels` takes and returns; numpy counts
edges inside it. Each term is a formula over `Kernels.cpre_of`, `lpre_of` and
`npre_of` or `apre_of`. `_run` keys what the terms read of a variable (the
`cpre` bits of its edge count, then the live-edge operator of an X or the part
of its term that a Y decides alone) by the variable's version, which moves at
every reset and iterate. A version miss goes to a memo of the two values
counted most recently: each holds its edge counts and `cpre` bits and, once an
X asks, its live-edge counts and operator. The entry with the fewest bits
differing from the operand is reused when equal, and moved to it by
`_count_moves` when at most `_DELTA_MAX` bits differ: the predecessors of each
changed vertex count one edge more or less, and a bit flips where a count
crosses its need, the attractor's counter technique. Otherwise the operand is
counted in full and replaces the older entry. Two entries, because on the
1000-rung ladders the counted operands alternate between two chains:
consecutive ones differ in about a quarter of the vertices, each is two bits
from the one two steps back. The bound is a small constant because a bit step
on an int costs O(n/64) words. A reset value needs no count: no edge enters
the empty set, and `Kernels.deg` edges enter the active set. Each level is a
generator frame that yields the level below it, so `run_frames` bounds nesting
by memory, not by the recursion limit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Dict, Optional, Tuple

import numpy as np

from .game import EVEN, ODD, Deadline, Region, SubgameView, least_even_upperbound, run_frames
from .transformers import Kernels, mask_to_np, np_to_mask

# most bits by which an operand may differ from a memo entry moved to it by _count_moves
_DELTA_MAX = 8


@dataclass(frozen=True)
class Rank:
    """Per-vertex rank: mu-entry indices, outermost level first."""

    components: Tuple[int, ...]

    def interleaved(self) -> Tuple[int, ...]:
        """Components padded with zeros at the intermediate levels."""
        return tuple(x for c in self.components for x in (c, 0))


@dataclass
class FpTrace:
    """What a fixed-point solve left behind.

    counters holds the final iteration count of every variable level.
    snapshots (optional) maps (variable name, iteration address) to the
    variable's value, e.g. ("Y2", (1, 0, 3)) is the third iterate of Y2 while
    Y4 has completed one iteration and X3 none. components (optional) holds
    the recorded mu-entry indices per level; they are ranks on the region
    only (-1 or a stale index elsewhere).
    """

    side: int
    l: int
    region: Region
    counters: Dict[int, int]
    snapshots: Optional[Dict[Tuple[str, Tuple[int, ...]], Region]] = None
    components: Optional[Dict[int, np.ndarray]] = None


def _var_name(k: int) -> str:
    return f"{'Y' if k % 2 == 0 else 'X'}{k}"


def _count_moves(counts: memoryview, need: memoryview, pred, old: int, new: int) -> int:
    """Move counts of edges into `old` to `new` in place; pred[w] lists the sources of edges into w.

    Returns the bits of the vertices whose count crosses their need.
    """
    flips = 0
    diff = old ^ new
    while diff:
        low = diff & -diff
        diff ^= low
        if new & low:
            for v in pred[low.bit_length() - 1]:
                counts[v] += 1
                if counts[v] == need[v]:
                    flips ^= 1 << v
        else:
            for v in pred[low.bit_length() - 1]:
                if counts[v] == need[v]:
                    flips ^= 1 << v
                counts[v] -= 1
    return flips


def _run(
    view: SubgameView,
    side: int,
    use_live: bool,
    want_ranks: bool,
    want_snapshots: bool,
    deadline: Optional[Deadline],
) -> Tuple[Region, FpTrace]:
    game = view.game
    K = Kernels(view, use_live)
    n = K.n
    act = K.active
    l = least_even_upperbound(game, view.active)
    evens = list(range(2, l + 1, 2))
    level = K.level
    C = {j: np_to_mask(level == j) & act for j in evens}
    # term j is base[j] | C[j] & cpre(side, Y_j) | rest[j] & op(Y_j, X_{j-1})
    if side == ODD:
        base = {j: np_to_mask(level > j) & act for j in evens}
        rest = {j: act & ~C[j] for j in evens}
        op, join, live = K.npre_of, operator.and_, K.lpre_forall
    else:
        base = dict.fromkeys(evens, 0)
        rest = {j: np_to_mask(level < j) & act for j in evens}
        op, join, live = K.apre_of, operator.or_, K.lpre_exists

    # cpre and live bits of the reset values, the empty set (no edge in) and the active set (K.deg in)
    start = {True: (K.cpre_of(side, np.zeros(n)), live(0)), False: (K.cpre_of(side, K.deg), live(act))}
    # with no live edge in the view the live operator is constant and no live count is kept
    lfree = start[True][1] if K.live_free is not None else None
    need_v = memoryview(K.need[side])
    lneed_v = memoryview(K.lneed[side]) if lfree is None else None
    memo: list = []  # [value, counts, cpre bits, live counts, live bits], most recent last

    def counted(x: int, want_live: bool) -> list:
        e = min(memo, key=lambda f: (x ^ f[0]).bit_count(), default=None)
        d = (x ^ e[0]).bit_count() if e is not None else np.inf
        if d > _DELTA_MAX:
            counts = K.count_in(x)
            e = [x, memoryview(counts), K.cpre_of(side, counts), None, lfree]
        elif d:
            e[2] ^= _count_moves(e[1], need_v, game.pred, e[0], x)
            if e[3] is not None:
                e[4] ^= _count_moves(e[3], lneed_v, game.live_pred, e[0], x)
            e[0] = x
        memo[:] = [f for f in memo if f is not e][-1:] + [e]
        if want_live and e[4] is None:
            lcounts = K.live_count_in(x)
            e[3], e[4] = memoryview(lcounts), K.lpre_of(side, lcounts)
        return e

    var: Dict[int, int] = {}
    ver: Dict[int, int] = {k: 0 for k in range(1, l + 1)}
    counters: Dict[int, int] = {k: 0 for k in range(1, l + 1)}
    parts: Dict[int, tuple] = {}  # k -> (ver[k], ...), see part()
    terms: Dict[int, tuple] = {}

    recorded = evens if side == ODD else list(range(1, l + 1, 2))
    comp: Optional[Dict[int, np.ndarray]] = None
    if want_ranks:
        comp = {m: np.full(n, -1, dtype=np.int32) for m in recorded}
    snaps: Optional[Dict[Tuple[str, Tuple[int, ...]], Region]] = (
        {} if want_snapshots else None
    )

    def part(k: int, reset: Optional[tuple] = None) -> tuple:
        # (ver[k], cpre bits of var[k], then its live bits for an X or for a
        # Y its own part of term k, which reads no X), once per version;
        # reset holds the cpre and live bits of a reset value
        if reset is None:
            hit = parts[k]
            if hit[0] == ver[k]:
                return hit
            e = counted(var[k], k % 2 == 1)
            reset = e[2], e[4]
        p, lx = reset
        parts[k] = (ver[k], p, lx if k % 2 else base[k] | (C[k] & p))
        return parts[k]

    def term(j: int) -> int:
        key = (ver[j], ver[j - 1])
        hit = terms.get(j)
        if hit is not None and hit[0] == key:
            return hit[1]
        _, py, own = part(j)
        _, px, lx = part(j - 1)
        val = own | (rest[j] & op(py, px, lx))
        terms[j] = (key, val)
        return val

    def eval_level(k: int):
        # a frame of run_frames: `yield k - 1` asks for level k - 1's fixed point
        mu = (k % 2 == 0) == (side == ODD)
        var[k] = 0 if mu else act
        ver[k] += 1
        part(k, start[mu])
        counters[k] = 0
        while True:
            if deadline is not None:
                deadline.poll()
            if not mu and comp is not None and k + 1 in comp:
                # inner ranks come from the last pass; a vertex that the mu
                # above has taken in keeps those of the pass that took it in
                for m in range(k - 1, 0, -2):
                    comp[m][comp[k + 1] < 0] = -1
            newval = (yield k - 1) if k > 1 else reduce(join, map(term, evens))
            moved = newval ^ var[k]
            if mu:
                assert not moved & var[k], "mu iterate shrank"
            else:
                assert not moved & newval, "nu iterate grew"
            it = counters[k] + 1
            if snaps is not None:
                ctx = tuple(counters[kk] for kk in range(l, k, -1))
                snaps[(_var_name(k), ctx + (it,))] = Region(n, newval)
            if mu and moved and comp is not None:
                comp[k][mask_to_np(newval, n) & (comp[k] < 0)] = it
            var[k] = newval
            ver[k] += 1
            counters[k] = it
            if not moved:
                return newval

    result = run_frames(eval_level(l), eval_level)
    region = Region(n, result)
    if comp is not None:
        for m in recorded:
            bad = mask_to_np(result, n) & (comp[m] < 1)
            assert not bad.any(), f"vertex in the winning region lacks a level-{m} rank component"
    trace = FpTrace(
        side=side,
        l=l,
        region=region,
        counters=dict(counters),
        snapshots=snaps,
        components=comp,
    )
    return region, trace


def solve_odd_fp(
    view: SubgameView,
    *,
    use_live: bool = True,
    ranks: bool = True,
    snapshots: bool = False,
    deadline: Optional[Deadline] = None,
) -> Tuple[Region, FpTrace]:
    """Vertices Odd wins (under fairness when use_live), plus the solve trace."""
    return _run(view, ODD, use_live, ranks, snapshots, deadline)


def solve_even_fp(
    view: SubgameView,
    *,
    use_live: bool = True,
    ranks: bool = False,
    snapshots: bool = False,
    deadline: Optional[Deadline] = None,
) -> Tuple[Region, FpTrace]:
    """Vertices Even wins (under fairness when use_live), plus the solve trace."""
    return _run(view, EVEN, use_live, ranks, snapshots, deadline)


def extract_ranks(trace: FpTrace) -> Dict[int, Rank]:
    """Rank per winning vertex, components outermost level first."""
    if trace.components is None:
        raise ValueError("solve was run without rank recording")
    levels = [m for m in sorted(trace.components, reverse=True)]
    out = {}
    for v in trace.region:
        out[v] = Rank(tuple(int(trace.components[m][v]) for m in levels))
    return out


def m_set(trace: FpTrace) -> Region:
    """Winning vertices whose rank components are all 1."""
    if trace.side != ODD:
        raise ValueError("m_set is defined for Odd-solver traces")
    if trace.components is None:
        raise ValueError("solve was run without rank recording")
    return Region.of(
        trace.region.n,
        (
            v
            for v in trace.region
            if all(int(c[v]) == 1 for c in trace.components.values())
        ),
    )
