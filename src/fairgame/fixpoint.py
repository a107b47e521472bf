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

Each distinct value is counted once as it passes between levels: `_run`
keys what the terms read of a variable (the `cpre` of its edge count, then
the live-edge operator of an X or the part of its term that a Y decides
alone) by the variable's version, which moves at every reset and iterate.
On a version miss it compares the operand with the value it counted last,
byte for byte, and reuses that value's `cpre` and live-edge operator when
they are equal. One entry suffices for these repeats: a variable takes as
its next iterate the fixed point that the level below has just confirmed,
the very value counted in that level's last pass, so on the 1000-rung
ladders every repeat is of the operand counted just before it. A value that
comes back later (on random games, when an inner variable re-runs after its
reset the chain of iterates it ran before) is counted again, and the memo
stays one n-byte key and two masks however many iterates a solve makes. A
reset value needs no count: no edge enters the empty set, and `Kernels.deg`
edges enter the active set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Dict, Optional, Tuple

import numpy as np

from .game import EVEN, ODD, Deadline, Region, SubgameView, least_even_upperbound
from .transformers import Kernels, np_to_region


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


def _run(
    view: SubgameView,
    side: int,
    use_live: bool,
    want_ranks: bool,
    want_snapshots: bool,
    deadline: Optional[Deadline],
) -> Tuple[Region, FpTrace]:
    K = Kernels(view, use_live)
    n = K.n
    active = K.active
    l = least_even_upperbound(view.game, view.active)
    evens = list(range(2, l + 1, 2))
    pri = K.priority
    C = {j: active & (pri == j) for j in evens}
    # term j is base[j] | C[j] & cpre(side, Y_j) | rest[j] & op(Y_j, X_{j-1})
    if side == ODD:
        base = {j: active & (pri > j) for j in evens}
        rest = {j: active & (pri != j) for j in evens}
        op, join = K.npre_of, np.logical_and
    else:
        base = {j: np.zeros(n, bool) for j in evens}
        rest = {j: active & (pri < j) for j in evens}
        op, join = K.apre_of, np.logical_or

    var: Dict[int, np.ndarray] = {}
    ver: Dict[int, int] = {k: 0 for k in range(1, l + 1)}
    counters: Dict[int, int] = {k: 0 for k in range(1, l + 1)}
    parts: Dict[int, tuple] = {}  # k -> (ver[k], ...), see part()
    memo: Dict[int, tuple] = {}
    live = K.lpre_forall if side == ODD else K.lpre_exists
    # cpre_of and live of the reset values, the empty set (count_in zero) and the active set (K.deg)
    start = {True: (K.cpre_of(side, np.zeros(n)), live(np.zeros(n, bool))),
             False: (K.cpre_of(side, K.deg), live(active))}
    # bytes, cpre_of and live (None until an X asks) of the value counted last
    last: list = [None, None, None]

    recorded = evens if side == ODD else list(range(1, l + 1, 2))
    comp: Optional[Dict[int, np.ndarray]] = None
    if want_ranks:
        comp = {m: np.full(n, -1, dtype=np.int32) for m in recorded}
    snaps: Optional[Dict[Tuple[str, Tuple[int, ...]], Region]] = (
        {} if want_snapshots else None
    )

    def part(k: int, reset: Optional[tuple] = None) -> tuple:
        # (ver[k], cpre_of(side, count_in(var[k])), then live(var[k]) for an X
        # or for a Y its own part of term k, which reads no X), once per
        # version; a new version of the value counted last reuses its count
        # and live operator; reset holds cpre_of and live of a reset value
        if reset is None:
            hit = parts[k]
            if hit[0] == ver[k]:
                return hit
            x = var[k]
            key = x.tobytes()
            if key != last[0]:
                last[:] = key, K.cpre_of(side, K.count_in(x)), None
            if k % 2 and last[2] is None:
                last[2] = live(x)
            reset = last[1], last[2]
        p, lx = reset
        parts[k] = (ver[k], p, lx if k % 2 else base[k] | (C[k] & p))
        return parts[k]

    def term(j: int) -> np.ndarray:
        key = (ver[j], ver[j - 1])
        hit = memo.get(j)
        if hit is not None and hit[0] == key:
            return hit[1]
        _, py, own = part(j)
        _, px, lx = part(j - 1)
        val = own | (rest[j] & op(py, px, lx))
        memo[j] = (key, val)
        return val

    def eval_level(k: int) -> np.ndarray:
        mu = (k % 2 == 0) == (side == ODD)
        var[k] = np.zeros(n, bool) if mu else active.copy()
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
            newval = eval_level(k - 1) if k > 1 else reduce(join, map(term, evens))
            moved = newval ^ var[k]
            if mu:
                assert not np.count_nonzero(moved & var[k]), "mu iterate shrank"
            else:
                assert not np.count_nonzero(moved & newval), "nu iterate grew"
            it = counters[k] + 1
            if snaps is not None:
                ctx = tuple(counters[kk] for kk in range(l, k, -1))
                snaps[(_var_name(k), ctx + (it,))] = np_to_region(newval)
            changed = np.count_nonzero(moved) > 0
            if mu and changed and comp is not None:
                comp[k][newval & (comp[k] < 0)] = it
            var[k] = newval
            ver[k] += 1
            counters[k] = it
            if not changed:
                return newval

    try:
        result = eval_level(l)
    finally:
        del eval_level  # it refers to itself: a cycle that would hold K and the iterates
    region = np_to_region(result)
    if comp is not None:
        for m in recorded:
            bad = result & (comp[m] < 1)
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
