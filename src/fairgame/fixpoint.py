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
entered each mu variable during first-pass contexts. Those indices are the
rank components used to build strategy templates: component order is
outermost level first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .game import EVEN, ODD, Deadline, Region, SubgameView, least_even_upperbound
from .transformers import Kernels, kernels, np_to_region


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
    the recorded mu-entry indices per level, -1 where unset.
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
    K: Kernels = kernels(view, use_live)
    n = K.n
    active = K.active
    l = least_even_upperbound(view.game, view.active)
    evens = list(range(2, l + 1, 2))
    C = {i: active & (K.priority == i) for i in range(1, l + 1)}

    if side == ODD:
        above: Dict[int, np.ndarray] = {}
        acc = np.zeros(n, bool)
        for j in range(l, 0, -1):
            above[j] = acc
            acc = acc | C[j]
        not_c = {j: active & ~C[j] for j in evens}
    else:
        below: Dict[int, np.ndarray] = {}
        acc = np.zeros(n, bool)
        for j in range(1, l + 1):
            below[j] = acc
            acc = acc | C[j]

    var: Dict[int, np.ndarray] = {}
    ver: Dict[int, int] = {k: 0 for k in range(1, l + 1)}
    counters: Dict[int, int] = {k: 0 for k in range(1, l + 1)}
    memo: Dict[int, tuple] = {}

    recorded = evens if side == ODD else list(range(1, l + 1, 2))
    comp: Optional[Dict[int, np.ndarray]] = None
    if want_ranks:
        comp = {m: np.full(n, -1, dtype=np.int32) for m in recorded}
    snaps: Optional[Dict[Tuple[str, Tuple[int, ...]], Region]] = (
        {} if want_snapshots else None
    )

    def is_mu(k: int) -> bool:
        return (k % 2 == 0) == (side == ODD)

    def term(j: int) -> np.ndarray:
        key = (ver[j], ver[j - 1])
        hit = memo.get(j)
        if hit is not None and hit[0] == key:
            return hit[1]
        yj, xj1 = var[j], var[j - 1]
        cy = K.count_in(yj)  # shared by both operators of the term
        if side == ODD:
            val = above[j] | (not_c[j] & K.npre_of(cy, xj1)) | (C[j] & K.cpre_of(ODD, cy))
        else:
            val = (C[j] & K.cpre_of(EVEN, cy)) | (below[j] & K.apre_of(cy, xj1))
        memo[j] = (key, val)
        return val

    def body() -> np.ndarray:
        out = None
        for j in evens:
            t = term(j)
            if out is None:
                out = t
            elif side == ODD:
                out = out & t
            else:
                out = out | t
        return out if out is not None else np.zeros(n, bool)

    def record_mu(m: int, it: int, newval: np.ndarray) -> None:
        # record only while every enclosing nu variable is on its first pass
        if any(counters[kk] != 0 for kk in range(m + 1, l + 1, 2)):
            return
        cm = comp[m]
        cm[newval & (cm < 0)] = it
        dropped = active & ~newval
        inner_start = 2 if side == ODD else 1
        for m2 in range(inner_start, m, 2):
            comp[m2][dropped] = -1

    def eval_level(k: int) -> np.ndarray:
        mu = is_mu(k)
        var[k] = np.zeros(n, bool) if mu else active.copy()
        ver[k] += 1
        counters[k] = 0
        while True:
            if deadline is not None:
                deadline.poll()
            newval = eval_level(k - 1) if k > 1 else body()
            old = var[k]
            if mu:
                assert not (old & ~newval).any(), "mu iterate shrank"
            else:
                assert not (newval & ~old).any(), "nu iterate grew"
            it = counters[k] + 1
            if snaps is not None:
                ctx = tuple(counters[kk] for kk in range(l, k, -1))
                snaps[(_var_name(k), ctx + (it,))] = np_to_region(newval)
            if mu and comp is not None:
                record_mu(k, it, newval)
            changed = not np.array_equal(newval, old)
            var[k] = newval
            ver[k] += 1
            counters[k] = it
            if not changed:
                return newval

    result = eval_level(l)
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
