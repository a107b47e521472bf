"""Winning strategy templates for Odd and positional strategies for Even.

An Odd template is an edge set over a region: Even keeps every edge that
stays inside, Odd keeps one chosen edge per vertex plus, on cycles, all of
its live edges; `_odd_template` is that rule for both solver families. An
Even strategy picks one edge per Even vertex of the region. Both come with
validators that check the defining shape conditions against the game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from .game import EVEN, ODD, Deadline, OddFairGame, Region, SubgameView
from .fixpoint import FpTrace, Rank, solve_even_fp


@dataclass(frozen=True)
class OddTemplate:
    n: int
    vertices: Region
    edges: FrozenSet[Tuple[int, int]]

    def targets(self, v: int) -> Tuple[int, ...]:
        return tuple(sorted(w for (u, w) in self.edges if u == v))


@dataclass
class EvenStrategy:
    n: int
    vertices: Region
    choice: Dict[int, int]


def _scc_components(vertices: Iterable[int], adj: Dict[int, list]) -> list:
    """Tarjan over an adjacency dict, iterative to keep recursion shallow.

    A vertex is on the component stack exactly while it has a `low` entry.
    """
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: list = []
    comps: list = []
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj.get(root, ())))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(adj.get(w, ()))))
                    break
                if w in low and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        del low[w]
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comps


def _cycle_vertices(vset: set, edges: Iterable[Tuple[int, int]]) -> set:
    adj: Dict[int, list] = {}
    for (u, w) in edges:
        if u in vset and w in vset:
            adj.setdefault(u, []).append(w)
    out = set()
    for comp in _scc_components(sorted(vset), adj):
        if len(comp) > 1 or comp[0] in adj.get(comp[0], ()):
            out.update(comp)
    return out


def close_live_cycles(
    game: OddFairGame, vertices: Region, edges: Iterable[Tuple[int, int]]
) -> FrozenSet[Tuple[int, int]]:
    """Close an edge set under: Odd vertices on a cycle keep all live edges.

    Live edges whose target falls outside the region are not added; the
    validator reports such templates. A region without a live edge out of
    any of its vertices has nothing to add, and returns the edges without an
    SCC pass.
    """
    vset = set(vertices)
    if not any(map(game.live_succ.__getitem__, vset)):
        return frozenset(edges)
    eset = set(edges)
    while True:
        new = {
            (v, w)
            for v in _cycle_vertices(vset, eset)
            if game.owner[v] == ODD
            for w in game.live_succ[v]
            if w in vset
        } - eset
        if not new:
            return frozenset(eset)
        eset |= new


def _odd_template(game, region: Region, members: set, choice: Dict[int, int]) -> OddTemplate:
    """The template over region (as the set members) whose Odd vertices keep
    their edge in choice, closed under live edges on cycles."""
    edges = set()
    for v in members:
        if game.owner[v] == EVEN:
            edges.update((v, w) for w in game.succ[v] if w in members)
        elif v in choice:
            edges.add((v, choice[v]))
    return OddTemplate(game.n, region, close_live_cycles(game, region, edges))


def build_rank_template(
    view: SubgameView, region: Region, ranks: Dict[int, Rank]
) -> OddTemplate:
    """Template over an Odd winning region whose Odd vertices keep a successor
    of least solve rank inside it, the lowest id among equals."""
    game = view.game
    verts = list(region)
    members = set(verts)
    choice = {}
    for v in verts:
        if game.owner[v] == ODD:
            inside = [w for w in game.succ[v] if w in members]
            if not inside:
                raise ValueError(f"odd vertex {v} has no successor in the region")
            choice[v] = min(inside, key=lambda w: (ranks[w].interleaved(), w))
    return _odd_template(game, region, members, choice)


def validate_odd_template(game: OddFairGame, t: OddTemplate) -> Optional[str]:
    """First shape violation of an Odd template, or None."""
    verts = list(t.vertices)
    region = set(verts)
    succ = {v: set(game.succ[v]) for v in verts}
    for (u, w) in t.edges:
        if u not in region or w not in region:
            return f"template edge ({u}, {w}) leaves the region"
        if w not in succ[u]:
            return f"template edge ({u}, {w}) is not a game edge"
    out: Dict[int, set] = {v: set() for v in verts}
    for (u, w) in t.edges:
        out[u].add(w)
    on_cycle = _cycle_vertices(region, t.edges)
    for v in verts:
        if game.owner[v] == EVEN:
            if not succ[v] <= region:
                return f"even vertex {v} has an edge leaving the region"
            if out[v] != succ[v]:
                return f"even vertex {v} does not keep all its edges"
        else:
            live = set(game.live_succ[v])
            if v in on_cycle:
                if not live <= out[v]:
                    return f"odd vertex {v} on a cycle is missing a live edge"
                if not (1 <= len(out[v]) <= len(live) + 1):
                    return f"odd vertex {v} on a cycle keeps too many edges"
            else:
                if len(out[v]) != 1:
                    return f"odd vertex {v} off cycles must keep exactly one edge"
    return None


def validate_even_strategy(game: OddFairGame, s: EvenStrategy) -> Optional[str]:
    """First shape violation of an Even strategy, or None."""
    verts = list(s.vertices)
    region = set(verts)
    for v in verts:
        if game.owner[v] == EVEN:
            if v not in s.choice:
                return f"even vertex {v} has no chosen edge"
            w = s.choice[v]
            if w not in game.succ[v]:
                return f"chosen edge ({v}, {w}) is not a game edge"
            if w not in region:
                return f"chosen edge ({v}, {w}) leaves the region"
        else:
            if not all(w in region for w in game.succ[v]):
                return f"odd vertex {v} can leave the region"
    for v in s.choice:
        if game.owner[v] != EVEN or v not in region:
            return f"choice given for vertex {v} outside the even region"
    return None


def extract_even_strategy(
    view: SubgameView,
    *,
    region: Optional[Region] = None,
    trace: Optional[FpTrace] = None,
    deadline: Optional[Deadline] = None,
) -> EvenStrategy:
    """Positional Even strategy on the Even winning region of the view.

    The region comes from a given trace of either side (an Even trace's
    region, or by determinacy the view minus an Odd trace's region) and is
    solved for only when no trace is given. The trace must come from a
    fixed-point solve of this view; a view of `game.with_live(())` gives the
    classical strategy. The region is an Odd-trap on which Even wins from
    everywhere, so the recursive solver restricted to it returns the whole
    region as Even's and its choice map is the strategy. A successor of
    minimal solver rank is not always a winning move here: two successors can
    carry the same minimal rank while only one of them makes progress, so the
    choice has to come from the recursion structure.
    """
    from .zielonka import solve_zielonka_fair

    game = view.game
    if trace is None:
        reg, _ = solve_even_fp(view, deadline=deadline)
    elif trace.side == EVEN:
        reg = trace.region
    else:
        reg = view.active - trace.region
    if region is not None and region != reg:
        raise ValueError("given region does not match the Even winning region")
    if not reg:
        return EvenStrategy(game.n, reg, {})
    sub = SubgameView(game, reg)
    art = solve_zielonka_fair(sub, extract=True, deadline=deadline)
    assert art.win_even == reg, "region is not the Even paradise it claims to be"
    return art.even_strategy


def format_template(game: OddFairGame, t: OddTemplate) -> str:
    lines = [f"template {len(t.vertices)};"]
    pairs = sorted(
        (game.original_ids[u], game.original_ids[w]) for (u, w) in t.edges
    )
    lines.extend(f"edge {a} {b};" for (a, b) in pairs)
    return "\n".join(lines) + "\n"


def format_strategy(game: OddFairGame, s: EvenStrategy) -> str:
    lines = [f"strategy {len(s.vertices)};"]
    pairs = sorted(
        (game.original_ids[v], game.original_ids[w]) for (v, w) in s.choice.items()
    )
    lines.extend(f"edge {a} {b};" for (a, b) in pairs)
    return "\n".join(lines) + "\n"
