"""Recursive attractor-based solver, with and without the fairness assumption.

One routine serves both parities. It peels the top class present in its
arena, solves the rest, and removes opponent attractors until stable. It
reads the game's levels (`OddFairGame.level`, the dense relabelling of its
priorities with the same order and parity) and recurses only into the
classes present in each sub-arena, so its depth grows with the number of
nested present classes, not with the priority values or absent levels.
Under the fairness assumption Even's attractor additionally pulls in Odd
vertices with a live edge into the attracted set, which overapproximates
Even's classical reach. An Odd level therefore runs in rounds: the surviving
core is grown by one plain Odd attractor and claimed for Odd, and if any
live pull fired during the round the remainder is re-solved the same way
until the core comes back empty. The plain attractor alone can miss
remainder vertices whose only escape is an odd cycle inside the
overapproximated piece, which is why the rounds are needed. When no pull
fired the removed pieces are exact attractors, so the remainder is already
the opponent's region and the rounds stop early; an Even level, whose
removed pieces are Odd attractors, always stops after one round. Either way
the last round's pieces tile the opponent's region exactly.

With extract=True the recursion additionally assembles one chosen edge per
winning vertex of each player, combined at top level into an Odd template
(closed under live edges on cycles) and an Even strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from .game import EVEN, ODD, Deadline, OddFairGame, Region, SubgameView
from .templates import EvenStrategy, OddTemplate, close_live_cycles
from .transformers import kernels, np_to_region, region_to_np


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


class _Ctx:
    __slots__ = ("game", "use_live", "extract", "check", "deadline")

    def __init__(self, game, use_live, extract, check, deadline):
        self.game = game
        self.use_live = use_live
        self.extract = extract
        self.check = check
        self.deadline = deadline


class _Art:
    """A sub-solution: each player's region and, in extract mode, chosen edges."""

    __slots__ = ("win", "choice")

    def __init__(self, extract: bool):
        self.win = [set(), set()]
        self.choice = ({}, {}) if extract else None


def _safe_reach(
    game: OddFairGame,
    player: int,
    fair: bool,
    S: Set[int],
    R: Set[int],
    arena: Optional[Set[int]] = None,
):
    """Layered attractor for player toward R with S as the allowed corridor.

    Opponent vertices are forced once every successor in arena (default S)
    is attracted. fair adds the live-edge pull for Even. Returns (reach set,
    rank dict, pulled flag); pulled is True when some Odd vertex entered
    through the live pull alone, i.e. the result may be strictly larger than
    the classical attractor.
    """
    if arena is None:
        arena = S
    reach = set(R)
    rank = {v: 1 for v in R}
    cnt: Dict[int, int] = {}
    lcnt: Dict[int, int] = {}
    deg: Dict[int, int] = {}
    frontier = list(R)
    level = 1
    pulled = False
    while frontier:
        level += 1
        cands = set()
        for w in frontier:
            for v in game.pred[w]:
                if v in S and v not in reach:
                    cnt[v] = cnt.get(v, 0) + 1
                    cands.add(v)
            if fair:
                for v in game.live_pred[w]:
                    if v in S and v not in reach:
                        lcnt[v] = lcnt.get(v, 0) + 1
                        cands.add(v)
        frontier = []
        for v in cands:
            own = game.owner[v]
            if own == player:
                ok = cnt.get(v, 0) >= 1
            else:
                if v not in deg:
                    deg[v] = sum(1 for w in game.succ[v] if w in arena)
                ok = cnt.get(v, 0) == deg[v]
                if not ok and fair and own == ODD and lcnt.get(v, 0) >= 1:
                    ok = True
                    pulled = True
            if ok:
                frontier.append(v)
        for v in frontier:
            reach.add(v)
            rank[v] = level
    return reach, rank, pulled


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
    K = kernels(view)
    s, r = region_to_np(S), region_to_np(R)
    import numpy as np

    y = K.active.copy()
    while True:
        x = np.zeros(K.n, bool)
        while True:
            x2 = s & (r | K.apre(y, x))
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


def _round(ctx: _Ctx, top: int, arena: Set[int]):
    """One peel-and-remove pass over arena for lam, the parity of its top class.

    Alternates the lam attractor to the top class with removals of the
    opponent's sub-regions until the opponent's share of the leftover is
    empty. Returns the final loop state: the surviving core X, the last
    sub-solution with its attractor toward the top class, the removed pieces
    (extract mode), and whether any opponent removal used a live pull.
    """
    game = ctx.game
    lam = top % 2
    opp = 1 - lam
    level = game.level
    C = {v for v in arena if level[v] == top}
    X = set(arena)
    removed_total: Set[int] = set()
    pieces = []
    pulled = False
    while True:
        if ctx.deadline is not None:
            ctx.deadline.poll()
        N = C & X
        fair_n = lam == EVEN and ctx.use_live
        reach_n, rank_n, _ = _safe_reach(game, lam, fair_n, X, N)
        Z = X - reach_n
        if ctx.check:
            _check_trap(game, lam, Z, X)
            if fair_n:
                _check_no_live_crossing(game, Z, reach_n)
        sub = _solve(ctx, Z)
        z_opp = sub.win[opp]
        if not z_opp:
            break
        fair_o = opp == EVEN and ctx.use_live
        reach_o, rank_o, p = _safe_reach(game, opp, fair_o, X, z_opp)
        pulled = pulled or p
        if ctx.check:
            whole, _, _ = _safe_reach(game, opp, fair_o, arena, removed_total | z_opp)
            assert whole == removed_total | reach_o, "staged removals diverge from the joint attractor"
        if ctx.extract:
            pieces.append((sub, reach_o, rank_o, set(z_opp)))
        X -= reach_o
        removed_total |= reach_o
        if ctx.check and fair_o:
            _check_no_live_crossing(game, X, removed_total)
    return X, sub, reach_n, rank_n, N, pieces, pulled


def _solve(ctx: _Ctx, active: Set[int]) -> _Art:
    """Solve active by its top present class; lam is that class's parity.

    Claims cores for lam round by round until the remainder holds. Each round
    runs the peel loop over the remainder U. A nonempty core X is grown to
    its plain lam attractor T inside U and claimed; without live pulls T
    equals X and the pieces removed by the round are exact, so the rest of U
    is the opponent's. After a pull the pieces may be too large and the
    shrunk remainder is re-solved. Only Even's attractor pulls, and it
    removes pieces only at Odd levels, so an Even level stops after one
    round. The last round's pieces tile the final remainder, which yields
    the opponent's edge choices directly.
    """
    if ctx.deadline is not None:
        ctx.deadline.poll()
    game = ctx.game
    level = game.level
    art = _Art(ctx.extract)
    if not active:
        return art
    top = max(level[v] for v in active)
    lam = top % 2
    opp = 1 - lam
    win, choice = art.win, art.choice
    U = set(active)
    while True:
        if not any(level[v] == top for v in U):
            sub = _solve(ctx, U)
            win[lam] |= sub.win[lam]
            U = set(sub.win[opp])
            if ctx.extract:
                choice[lam].update(sub.choice[lam])
                choice[opp].update(sub.choice[opp])
            break
        X, sub, reach_n, rank_n, N, pieces, pulled = _round(ctx, top, U)
        if X:
            if ctx.extract:
                choice[lam].update(sub.choice[lam])
                choice[lam].update(_reach_choices(game, lam, reach_n, rank_n, N))
                for v in N:
                    if game.owner[v] == lam:
                        choice[lam][v] = min(w for w in game.succ[v] if w in X)
            if pulled or ctx.check:
                T, rank_t, _ = _safe_reach(game, lam, False, U, X)
                if ctx.check and not pulled:
                    assert T == X, "pull-free core grew under the plain attractor"
            else:
                T, rank_t = set(X), {v: 1 for v in X}
            if ctx.extract:
                choice[lam].update(_reach_choices(game, lam, T, rank_t, X))
            win[lam] |= T
            U -= T
            if pulled and U:
                continue
        if ctx.extract and U:
            for sub_i, reach_i, rank_i, z_i in pieces:
                choice[opp].update(sub_i.choice[opp])
                choice[opp].update(_reach_choices(game, opp, reach_i, rank_i, z_i))
        break
    if ctx.check:
        _check_trap(game, lam, U, active)
    win[opp] = U
    return art


def _top(
    view: SubgameView,
    use_live: bool,
    extract: bool,
    check: bool,
    deadline: Optional[Deadline],
) -> RecursionArtifacts:
    game = view.game
    ctx = _Ctx(game, use_live, extract, check, deadline)
    art = _solve(ctx, set(view.active))
    w_even = Region.of(game.n, art.win[EVEN])
    w_odd = Region.of(game.n, art.win[ODD])
    out = RecursionArtifacts(win_even=w_even, win_odd=w_odd)
    if extract:
        base = set(art.choice[ODD].items())
        for v in art.win[ODD]:
            if game.owner[v] == EVEN:
                base.update((v, w) for w in game.succ[v] if w in art.win[ODD])
        out.odd_template = OddTemplate(
            game.n, w_odd, close_live_cycles(game, w_odd, base)
        )
        out.even_strategy = EvenStrategy(game.n, w_even, dict(art.choice[EVEN]))
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
