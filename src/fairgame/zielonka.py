"""Zielonka-style attractor solver, with and without the fairness assumption.

One level routine serves both parities. It peels the top class present in
its arena, solves the rest, and removes opponent attractors until stable. It
reads the game's levels (`OddFairGame.level`, the dense relabelling of its
priorities with the same order and parity) and nests only into the classes
present in each sub-arena. Each nested solve is a generator frame that
owns its arena and lends the sub-arena it yields: the arena drops it and
takes it back as the child's regions, so the sets held at all depths total
O(n). `_run` keeps the frames on a list, so nesting is bounded by memory.
Under the fairness assumption Even's attractor additionally pulls in Odd
vertices with a live edge into the attracted set, which overapproximates
Even's classical reach. An Odd level therefore runs in passes: the surviving
core is grown by one plain Odd attractor and claimed for Odd, and if any
live pull fired during the pass the rest of the removed pieces is re-solved
the same way until the core comes back empty. The plain attractor alone can
miss removed vertices whose only escape is an odd cycle inside the
overapproximated piece, which is why the passes are needed. When no pull
fired the removed pieces are exact attractors and make up the opponent's
region, so the passes stop early; an Even level, whose removed pieces are
Odd attractors, always stops after one pass. Either way the last pass's
pieces tile the opponent's region exactly.

The peel loop keeps the top class's attractor alive across removals rather
than recomputing it over the whole arena each time (delete and re-derive,
`_rederive`). Each removed piece is an opponent attractor, so what is left
is an opponent trap: its opponent vertices keep every successor and live
edge, only the attracting player's vertices lose edges, and the new
attractor is a subset of the old one. The layer ranks are stamps that
order each derivation, so a removal drops only the vertices whose stamps
say they may have used a removed one and re-attracts among those, stamping
above every other rank. A removal that cuts at least as many vertices as
it leaves is followed by a recompute instead, which the cut pays for.
Either way the work follows what the removals touch. The extracted choices
read the ranks of a from-scratch attractor, recomputed once when the peel
loop ends on a kept one.

The attractors of one solve share flat per-vertex counters (`_counters`),
made once per solve and dropped with it: edges into the attracted set,
live edges into it, the degree in the arena (-1 until read) and the layer
that last listed the vertex as a candidate. Each `_attract` puts the entries
it touched back at rest before it returns.

With extract=True every frame writes its chosen edges in place into one
choice map per player, and returns only its regions. The map is read at the
final regions alone, into an Odd template and an Even strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, NamedTuple, Optional, Set, Tuple

from .game import EVEN, ODD, Deadline, OddFairGame, Region, SubgameView
from .templates import EvenStrategy, OddTemplate, _odd_template
from .transformers import Kernels, np_to_region, region_to_np


@dataclass
class SafeReachResult:
    """An attractor with its layer ranks and a partial template.

    rank1d is 1 on the target set and k+1 on vertices added in layer k; the
    template edges strictly decrease it outside the targets.
    """

    region: Region
    rank1d: Dict[int, int]
    template_edges: FrozenSet[Tuple[int, int]]


@dataclass
class RecursionArtifacts:
    win_even: Region
    win_odd: Region
    odd_template: Optional[OddTemplate] = None
    even_strategy: Optional[EvenStrategy] = None


def _counters(n: int) -> tuple:
    """Attractor counters at rest over n vertices: cnt, lcnt, deg, mark."""
    return [0] * n, [0] * n, [-1] * n, [0] * n


class _Ctx(NamedTuple):
    """One solve's settings, its attractor counters and, in extract mode, its
    choice map per player."""

    game: OddFairGame
    use_live: bool
    check: bool
    deadline: Optional[Deadline]
    choice: Optional[Tuple[Dict[int, int], Dict[int, int]]]
    tab: tuple  # `_counters`


def _safe_reach(
    game: OddFairGame,
    player: int,
    fair: bool,
    S: Set[int],
    R: Set[int],
    arena: Optional[Set[int]] = None,
    tab: Optional[tuple] = None,
):
    """Layered attractor for player toward R with S as the allowed corridor.

    Opponent vertices are forced once every successor in arena (default S)
    is attracted. fair adds the live-edge pull for Even. Returns (reach set,
    rank dict, pulled flag); pulled is True when some Odd vertex entered
    through the live pull alone, i.e. the result may be strictly larger than
    the classical attractor. tab is the solve's counters (default: new ones).
    """
    if arena is None:
        arena = S
    reach = set(R)
    rank = {v: 1 for v in R}
    tab = tab or _counters(game.n)
    _, pulled = _attract(game, tab, player, fair, S, arena, reach, rank, list(R), 1)
    return reach, rank, pulled


def _attract(game, tab, player, fair, S, arena, reach, rank, frontier, level):
    """Grow reach in place, one layer per level, from the vertices in frontier.

    A vertex of S joins when its owner can force the next step into reach
    (see `_safe_reach`) and gets the layer's level as its rank. Every member
    of frontier must be in reach, and the counts start from frontier alone.
    tab's counters must be at rest, and are left so. Returns (the last level,
    pulled flag).
    """
    cnt, lcnt, deg, mark = tab
    pred, live_pred, owner, succ = game.pred, game.live_pred, game.owner, game.succ
    touched = []
    pulled = False
    while frontier:
        level += 1  # a layer's mark: levels only grow within a call
        cands = []
        for w in frontier:
            for v in pred[w]:
                if v in S and v not in reach:
                    cnt[v] += 1
                    if mark[v] != level:
                        mark[v] = level
                        cands.append(v)
            if fair:
                # a live edge is an edge, so the loop above made v a candidate
                for v in live_pred[w]:
                    if v in S and v not in reach:
                        lcnt[v] += 1
        touched += cands
        frontier = []
        for v in cands:
            own = owner[v]
            if own == player:
                ok = cnt[v] >= 1
            else:
                if deg[v] < 0:
                    deg[v] = sum(map(arena.__contains__, succ[v]))
                ok = cnt[v] == deg[v]
                if not ok and fair and own == ODD and lcnt[v] >= 1:
                    ok = True
                    pulled = True
            if ok:
                frontier.append(v)
        for v in frontier:
            reach.add(v)
            rank[v] = level
    for v in touched:
        cnt[v] = lcnt[v] = mark[v] = 0
        deg[v] = -1
    return level, pulled


def _rederive(game, player, fair, X, reach, rank, gone, top, tab=None):
    """Update player's attractor in place after its arena lost gone.

    reach is player's attractor in the arena X | gone, with its ranks as
    stamps; no stamp exceeds top, and X must be an opponent trap of that
    arena, so the new attractor in X is a subset of reach. Delete and
    re-derive: drop gone, then every vertex whose derivation may have used a
    dropped one (a higher stamp and an edge to it; `OddFairGame` makes every
    live edge an edge), except a player vertex that still has a lower-stamped
    successor in the set; then re-attract inside the over-deleted set,
    stamping each layer above top. Returns (over, top): the over-deleted
    vertices, some of which may be back in reach, and the new bound on the
    stamps. tab is as in `_safe_reach`.
    """
    owner, succ = game.owner, game.succ
    lost = [u for u in gone if u in reach]
    reach.difference_update(lost)
    over = set()
    while lost:
        u = lost.pop()
        ru = rank.pop(u)
        for p in game.pred[u]:
            if p not in reach or rank[p] <= ru:
                continue
            if owner[p] == player:
                rp = rank[p]
                if any(w in reach and rank[w] < rp for w in succ[p]):
                    continue
            reach.discard(p)
            over.add(p)
            lost.append(p)
    edge = {w for v in over for w in succ[v] if w in reach}
    tab = tab or _counters(game.n)
    top, _ = _attract(game, tab, player, fair, over, X, reach, rank, list(edge), top)
    return over, top


def _reach_choices(
    game: OddFairGame,
    player: int,
    reach: Set[int],
    rank: Dict[int, int],
    R: Set[int],
) -> Dict[int, int]:
    """One rank-decreasing edge per attracting-player vertex added by the reach."""
    choice = {}
    for v in reach:
        if v in R or game.owner[v] != player:
            continue
        best = None
        for w in game.succ[v]:
            rw = rank.get(w)
            if rw is not None and rw < rank[v]:
                if best is None or (rw, w) < best:
                    best = (rw, w)
        if best is None:
            raise AssertionError(f"attracted vertex {v} has no rank-decreasing edge")
        choice[v] = best[1]
    return choice


def _partial_template(
    game: OddFairGame,
    player: int,
    fair: bool,
    arena: Set[int],
    reach: Set[int],
    rank: Dict[int, int],
    R: Set[int],
) -> FrozenSet[Tuple[int, int]]:
    """Template edges of an attractor: strict rank decrease outside targets."""
    edges = set()
    choice = _reach_choices(game, player, reach, rank, R)
    edges.update(choice.items())
    for v in reach:
        if v in R or game.owner[v] == player:
            continue
        inside = [w for w in game.succ[v] if w in arena]
        lower = [w for w in inside if w in reach and rank[w] < rank[v]]
        if len(lower) == len(inside):
            edges.update((v, w) for w in inside)
        elif fair and game.owner[v] == ODD:
            live_lower = [
                w for w in game.live_succ[v]
                if w in arena and w in reach and rank[w] < rank[v]
            ]
            if not live_lower:
                raise AssertionError(f"attracted vertex {v} entered without a usable edge")
            edges.update((v, w) for w in live_lower)
        else:
            raise AssertionError(f"attracted vertex {v} entered without a usable edge")
    return frozenset(edges)


def _public_reach(view: SubgameView, player: int, fair: bool, S: Region, R: Region):
    if not R.issubset(S) or not S.issubset(view.active):
        raise ValueError("expected R subset of S subset of the active set")
    arena = set(view.active)
    sset, rset = set(S), set(R)
    reach, rank, _ = _safe_reach(view.game, player, fair, sset, rset, arena)
    edges = _partial_template(view.game, player, fair, arena, reach, rank, rset)
    return SafeReachResult(Region.of(view.n, reach), rank, edges)


def safe_reach_even_fair(view: SubgameView, S: Region, R: Region) -> SafeReachResult:
    """Even's reach of R through S, also pulling live edges into the set."""
    return _public_reach(view, EVEN, True, S, R)


def safe_reach_even_full(view: SubgameView, S: Region, R: Region) -> Region:
    """Even's exact reach of R through S under the fairness assumption."""
    if not R.issubset(S) or not S.issubset(view.active):
        raise ValueError("expected R subset of S subset of the active set")
    K = Kernels(view)
    s, r = region_to_np(S), region_to_np(R)
    import numpy as np

    y = K.active.copy()
    while True:
        py = K.cpre_of(EVEN, K.count_in(y))  # y is fixed while x grows
        x = np.zeros(K.n, bool)
        while True:
            x2 = s & (r | K.apre_of(py, K.cpre_of(EVEN, K.count_in(x)), K.lpre_exists(x)))
            if np.array_equal(x2, x):
                break
            x = x2
        if np.array_equal(x, y):
            return np_to_region(x)
        y = x


def _check_no_live_crossing(game, inside: Set[int], removed: Set[int]):
    for v in inside:
        if game.owner[v] != ODD:
            continue
        for w in game.live_succ[v]:
            assert w not in removed, f"live edge ({v}, {w}) crosses into a removed set"


def _check_trap(game, lam: int, Z: Set[int], X: Set[int]):
    for v in Z:
        inside_x = [w for w in game.succ[v] if w in X]
        assert inside_x, f"vertex {v} dead-ends in the reduced arena"
        if game.owner[v] == lam:
            assert all(w in Z for w in inside_x), f"vertex {v} escapes the trap"
        else:
            assert any(w in Z for w in inside_x), f"vertex {v} is forced out of the trap"


def _solve(ctx: _Ctx, X: Set[int]):
    """Solve the arena X as a frame of `_run`: `sub = yield Z` asks for Z's solution.

    The frame owns X and consumes it. Each pass reads the top class present
    in X; lam is its parity. The peel loop alternates the lam attractor to
    that class with removals of the opponent's sub-regions into removed,
    until the opponent's share of the core X is empty. X lends Z to the
    child and takes back the child's regions, which tile Z. Each removed
    piece's attractor choices go into the shared map as it is removed. A
    nonempty core is grown to its plain lam attractor T inside X | removed
    and claimed; without pulls T is X and removed is the opponent's region,
    whose choices stand. After a pull the pieces may be too large, and the
    next pass re-solves removed - T and writes its choices again. Only
    Even's attractor pulls, and it removes pieces only at Odd levels, so an
    Even pass is always the last. The lam attractor is updated after each
    removal that leaves more than it cuts (kept) and recomputed after the
    others. Returns the pair of win sets, indexed by player.
    """
    game, choice, tab = ctx.game, ctx.choice, ctx.tab
    level = game.level
    win = [set(), set()]
    size = len(X)  # the final checks rebuild the arena from the win sets
    while X:
        top = max(level[v] for v in X)
        lam = top % 2
        opp = 1 - lam
        N = {v for v in X if level[v] == top}
        fair_n = lam == EVEN and ctx.use_live
        removed: Set[int] = set()
        pulled = kept = False
        while True:
            if ctx.deadline is not None:
                ctx.deadline.poll()
            if not kept:
                reach_n, rank_n, _ = _safe_reach(game, lam, fair_n, X, N, tab=tab)
                stamp = len(X)  # no layer rank exceeds the arena's size
                Z = X - reach_n
            if ctx.check:
                assert reach_n == _safe_reach(game, lam, fair_n, X, N, tab=tab)[0], "maintained attractor diverges"
                assert Z == X - reach_n, "maintained remainder diverges"
                _check_trap(game, lam, Z, X)
                if fair_n:
                    _check_no_live_crossing(game, Z, reach_n)
            X -= Z  # lent to the child, which consumes it
            sub = yield Z
            X.update(*sub)  # the child's regions tile Z
            z_opp = sub[opp]
            if not z_opp:
                break
            fair_o = opp == EVEN and ctx.use_live
            reach_o, rank_o, p = _safe_reach(game, opp, fair_o, X, z_opp, tab=tab)
            pulled = pulled or p
            if ctx.check:
                whole, _, _ = _safe_reach(game, opp, fair_o, X | removed, removed | z_opp, tab=tab)
                assert whole == removed | reach_o, "staged removals diverge from the joint attractor"
            if choice is not None:
                choice[opp].update(_reach_choices(game, opp, reach_o, rank_o, z_opp))
            X -= reach_o
            N -= reach_o
            removed |= reach_o
            if ctx.check and fair_o:
                _check_no_live_crossing(game, X, removed)
            # a cut at least as large as what is left pays for recomputing
            kept = len(reach_o) < len(X)
            if kept:
                Z = sub[lam]  # the old Z less reach_o, which holds sub[opp]
                Z -= reach_o
                over, stamp = _rederive(game, lam, fair_n, X, reach_n, rank_n, reach_o, stamp, tab=tab)
                Z |= over - reach_n
        if X:
            if choice is not None:
                if kept:  # the choices read the from-scratch ranks
                    reach_n, rank_n, _ = _safe_reach(game, lam, fair_n, X, N, tab=tab)
                choice[lam].update(_reach_choices(game, lam, reach_n, rank_n, N))
                for v in N:
                    if game.owner[v] == lam:
                        choice[lam][v] = min(w for w in game.succ[v] if w in X)
            T = X
            if pulled or ctx.check:
                T, rank_t, _ = _safe_reach(game, lam, False, X | removed, X, tab=tab)
                assert pulled or T == X, "pull-free core grew under the plain attractor"
                if choice is not None:
                    choice[lam].update(_reach_choices(game, lam, T, rank_t, X))
            win[lam] |= T
            if pulled:
                X = removed - T
                continue
        win[opp] |= removed
        break
    if ctx.check:
        arena = win[EVEN] | win[ODD]
        assert len(arena) == len(win[EVEN]) + len(win[ODD]) == size, "the win sets do not tile the arena"
        _check_trap(game, EVEN, win[ODD], arena)
        _check_trap(game, ODD, win[EVEN], arena)
    return win


def _run(ctx: _Ctx, active: Set[int]) -> list:
    """Drive `_solve` frames on an explicit stack and return the root's win sets."""
    stack = [_solve(ctx, active)]
    sent = None
    while True:
        try:
            Z = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            sent = done.value
        else:
            stack.append(_solve(ctx, Z))
            sent = None


def _top(
    view: SubgameView,
    use_live: bool,
    extract: bool,
    check: bool,
    deadline: Optional[Deadline],
) -> RecursionArtifacts:
    game = view.game
    ctx = _Ctx(game, use_live, check, deadline, ({}, {}) if extract else None, _counters(game.n))
    win = _run(ctx, set(view.active))
    w_even = Region.of(game.n, win[EVEN])
    w_odd = Region.of(game.n, win[ODD])
    out = RecursionArtifacts(win_even=w_even, win_odd=w_odd)
    if extract:
        # An entry is read only for a vertex in its player's final region, and
        # the last write to it came from a kept result: a discarded one (a pass
        # that pulled, or a removed piece's sub-solution outside the piece)
        # covers vertices that are solved and written again, or that end in
        # the other player's region, where the entry is never read. Testing
        # membership leaves a missing choice to the validators.
        even = ctx.choice[EVEN]
        out.odd_template = _odd_template(game, w_odd, win[ODD], ctx.choice[ODD])
        out.even_strategy = EvenStrategy(game.n, w_even, {v: even[v] for v in win[EVEN] if v in even})
    return out


def solve_zielonka_fair(
    view: SubgameView,
    *,
    extract: bool = False,
    check: bool = False,
    deadline: Optional[Deadline] = None,
) -> RecursionArtifacts:
    """Winning regions under the fairness assumption on live edges."""
    return _top(view, True, extract, check, deadline)


def solve_zielonka_normal(
    view: SubgameView,
    *,
    extract: bool = False,
    check: bool = False,
    deadline: Optional[Deadline] = None,
) -> RecursionArtifacts:
    """Classical winning regions; live edges are ignored."""
    return _top(view, False, extract, check, deadline)
