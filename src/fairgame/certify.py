"""Certification of templates and strategies in polynomial time.

Both sides ask one question: is there a vertex set that some play can visit
forever, with a top priority of the wrong parity? Each side describes the
plays by two successor lists per region vertex: `must`, the successors a set
has to keep inside (it is closed under them), and `may`, the successors the
play can take. Such a set is closed under `must` and strongly connected under
the `may` edges inside it. One search finds one, Emerson-Lei style (Emerson
and Lei, "Modalities for model checking", 1987): drop the vertices that
cannot stay in the candidate set, split the rest into strongly connected
components with the Tarjan routine of `templates`, report a closed component
whose top priority has the wrong parity, and otherwise search it again
without its top priority class. Every set it searches is a strict subset
of the one it came from, and the sets at one depth are disjoint, so it
takes O(n·(n + m)) time at worst. The template side must see an odd top
priority on every such set, the strategy side an even one.
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


@dataclass
class CertifyResult:
    status: str  # "certified" | "rejected"
    detail: str
    counterexample: Optional[FrozenSet[Tuple[int, int]]] = None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _bad_set(
    game: OddFairGame,
    must: Dict[int, Sequence[int]],
    may: Dict[int, Sequence[int]],
    parity: int,
) -> Optional[Tuple[List[int], FrozenSet[Tuple[int, int]]]]:
    """A closed strongly connected set whose top priority has the parity.

    must and may map every region vertex to successor lists, must within
    may. Returns the set, sorted, with its may edges, or None.
    """
    preds: Dict[int, List[int]] = {v: [] for v in may}
    for v, ws in may.items():
        for w in ws:
            if w in preds:
                preds[w].append(v)
    stack = [set(may)]
    while stack:
        S = stack.pop()
        count = {v: sum(w in S for w in may[v]) for v in S}
        dropped = [v for v in S if not count[v] or any(w not in S for w in must[v])]
        S.difference_update(dropped)
        for u in dropped:  # grows while it is walked
            for q in preds[u]:
                if q in S:
                    count[q] -= 1
                    if not count[q] or u in must[q]:
                        S.discard(q)
                        dropped.append(q)
        adj = {v: [w for w in may[v] if w in S] for v in S}
        for comp in _scc_components(sorted(S), adj):
            if len(comp) == 1 and comp[0] not in adj[comp[0]]:
                continue
            C = set(comp)
            if len(C) < len(S) and any(w not in C for v in comp for w in must[v]):
                stack.append(C)
                continue
            top = max(game.priority[v] for v in comp)
            if top % 2 == parity:
                members = sorted(comp)
                return members, frozenset((v, w) for v in members for w in adj[v] if w in C)
            stack.append({v for v in comp if game.priority[v] != top})
    return None


def certify_odd_template(game: OddFairGame, t: OddTemplate) -> CertifyResult:
    """Check that every play compliant with the template sees an odd top priority."""
    problem = validate_odd_template(game, t)
    if problem is not None:
        return CertifyResult("rejected", f"invalid template: {problem}")
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


def certify_even_strategy(game: OddFairGame, s: EvenStrategy) -> CertifyResult:
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
        res = certify_even_strategy(game, strategy)
        if not res.certified:
            return res
    if w_odd:
        res = certify_odd_template(game, template)
        if not res.certified:
            return res
    return CertifyResult("certified", "both regions certified")
