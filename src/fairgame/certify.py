"""Exhaustive certification of templates and strategies on small instances.

Both sides ask one question: is there a vertex set that some play can visit
forever, with a top priority of the wrong parity? Each side describes the
plays by two successor lists per region vertex: `must`, the successors a set
has to keep inside (it is closed under them), and `may`, the successors the
play can take. A single search walks every subset of the sorted region as a
bit mask, in ascending order, and keeps the closed sets in which every member
has a `may` edge inside and forward and backward reach from the lowest member
both cover the set. The template side must see an odd maximum priority on all
of them, the strategy side an even one. This is exponential in the vertex
count and guarded by an edge bound; it serves as a ground-truth oracle for
the solvers, not as a scalable checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .game import EVEN, ODD, OddFairGame, Region
from .templates import (
    EvenStrategy,
    OddTemplate,
    _scc_components,
    validate_even_strategy,
    validate_odd_template,
)

DEFAULT_MAX_EDGES = 20


@dataclass
class CertifyResult:
    status: str  # "certified" | "rejected" | "too_large"
    detail: str
    counterexample: Optional[FrozenSet[Tuple[int, int]]] = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _reach(adj: List[int], mask: int) -> int:
    """Bits of mask reachable from its lowest bit along adj, inside mask."""
    seen = frontier = mask & -mask
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen


def _bad_set(
    game: OddFairGame,
    must: Dict[int, Sequence[int]],
    may: Dict[int, Sequence[int]],
    parity: int,
) -> Optional[Tuple[List[int], FrozenSet[Tuple[int, int]]]]:
    """First closed strongly connected set whose top priority has the parity.

    must and may map every region vertex to successor lists. Subsets of the
    sorted region are tried as bit masks in ascending order; the first one
    that passes is returned, sorted, with its may edges.
    """
    verts = sorted(may)
    m = len(verts)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    outside = 1 << m  # a target outside the region never lies in a mask

    def bits(ws: Sequence[int]) -> int:
        out = 0
        for w in ws:
            out |= bit.get(w, outside)
        return out

    need = [bits(must[v]) for v in verts]
    fwd = [bits(may[v]) for v in verts]
    bwd = [sum(1 << i for i in range(m) if (fwd[i] >> j) & 1) for j in range(m)]
    by_priority = sorted(((game.priority[v], bit[v]) for v in verts), reverse=True)
    for mask in range(1, 1 << m):
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if need[i] & ~mask or not fwd[i] & mask:
                break
            rest ^= low
        if rest or next(p for p, b in by_priority if b & mask) % 2 != parity:
            continue
        if _reach(fwd, mask) != mask or _reach(bwd, mask) != mask:
            continue
        members = [v for v in verts if bit[v] & mask]
        inside = set(members)
        adj = {v: [w for w in may[v] if w in inside] for v in members}
        assert len(_scc_components(members, adj)) == 1, "bit-mask reach disagrees with Tarjan"
        return members, frozenset((v, w) for v in members for w in adj[v])
    return None


def certify_odd_template(
    game: OddFairGame, t: OddTemplate, *, max_edges: int = DEFAULT_MAX_EDGES
) -> CertifyResult:
    """Check that every play compliant with the template sees an odd top priority."""
    problem = validate_odd_template(game, t)
    if problem is not None:
        return CertifyResult("rejected", f"invalid template: {problem}")
    if len(t.edges) > max_edges:
        return CertifyResult(
            "too_large",
            f"{len(t.edges)} template edges exceed the certification bound of {max_edges}",
        )
    may: Dict[int, List[int]] = {v: [] for v in t.vertices}
    for (u, w) in t.edges:
        may[u].append(w)
    must = {v: ws if game.owner[v] == ODD else () for v, ws in may.items()}
    found = _bad_set(game, must, may, EVEN)
    if found is not None:
        members, edges = found
        return CertifyResult(
            "rejected",
            "a compliant play can stay on an even-dominated cycle through "
            + ", ".join(game.label(v) for v in members),
            edges,
        )
    return CertifyResult("certified", "all compliant cycles are odd-dominated")


def certify_even_strategy(
    game: OddFairGame, s: EvenStrategy, *, max_edges: int = DEFAULT_MAX_EDGES
) -> CertifyResult:
    """Check the strategy against all fair Odd behaviors inside its region."""
    problem = validate_even_strategy(game, s)
    if problem is not None:
        return CertifyResult("rejected", f"invalid strategy: {problem}")
    must: Dict[int, Sequence[int]] = {}
    may: Dict[int, Sequence[int]] = {}
    for v in s.vertices:
        if game.owner[v] == EVEN:
            must[v] = may[v] = (s.choice[v],)
        else:
            # a valid strategy's region holds every successor of its Odd vertices
            must[v], may[v] = game.live_succ[v], tuple(dict.fromkeys(game.succ[v]))
    edge_count = sum(len(ws) for ws in may.values())
    if edge_count > max_edges:
        return CertifyResult(
            "too_large",
            f"{edge_count} strategy edges exceed the certification bound of {max_edges}",
        )
    found = _bad_set(game, must, may, ODD)
    if found is not None:
        members, edges = found
        return CertifyResult(
            "rejected",
            "a fair play against the strategy can stay on an odd-dominated "
            "cycle through " + ", ".join(game.label(v) for v in members),
            edges,
        )
    return CertifyResult("certified", "all fair plays against the strategy are even-dominated")


def certify_partition(
    game: OddFairGame,
    w_even: Region,
    w_odd: Region,
    strategy: EvenStrategy,
    template: OddTemplate,
    *,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> CertifyResult:
    """Certify a claimed winning partition with its strategy and template."""
    full = Region.full(game.n)
    if (w_even | w_odd) != full or not w_even.isdisjoint(w_odd):
        return CertifyResult("rejected", "not a partition")
    for region, keeper, name in ((w_even, EVEN, "w_even"), (w_odd, ODD, "w_odd")):
        verts = list(region)
        inside = set(verts)
        for v in verts:
            who = "even" if game.owner[v] == EVEN else "odd"
            if game.owner[v] != keeper and not all(w in inside for w in game.succ[v]):
                problem = f"can leave {name}"
            elif game.owner[v] == keeper and not any(w in inside for w in game.succ[v]):
                problem = f"is forced out of {name}"
            else:
                continue
            return CertifyResult("rejected", f"not a trap: {who} vertex {v} {problem}")
    if strategy.vertices != w_even:
        return CertifyResult("rejected", "strategy region does not match w_even")
    if template.vertices != w_odd:
        return CertifyResult("rejected", "template region does not match w_odd")
    if w_even:
        res = certify_even_strategy(game, strategy, max_edges=max_edges)
        if not res.certified:
            return res
    if w_odd:
        res = certify_odd_template(game, template, max_edges=max_edges)
        if not res.certified:
            return res
    return CertifyResult("certified", "both regions certified")
