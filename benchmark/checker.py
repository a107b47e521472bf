"""An independent checker for `fairgame solve --template` output.

It shares no code with the program: it has its own reader of the game file,
its own reader of the CLI output and its own graph algorithms. For one game,
one reading (fair: live edges count, classical: they are ignored) and one
output it checks that

* the two regions partition the vertices and each is a trap for the opponent,
* the Even strategy and the Odd template have the documented shape,
* no fair Odd play against the strategy stays forever on a set whose top
  priority is odd, and no play compliant with the template stays forever on
  a set whose top priority is even.

The last two are decided in polynomial time by recursive SCC decomposition
(Emerson-Lei style): drop vertices that cannot stay, split the rest into
strongly connected components, report a component whose top priority has
the wrong parity, and otherwise remove its top priority class and recurse.
Passing every check proves both regions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

EVEN, ODD = 0, 1


class CheckFailure(Exception):
    """A rejected check: `check` names it, the message says where."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


@dataclass
class Game:
    ids: List[int]
    owner: List[int]
    priority: List[int]
    succ: List[List[int]]
    live: List[List[int]]
    labels: List[str]
    index: Dict[int, int] = field(default_factory=dict)
    by_label: Dict[str, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.ids)


def read_game(text: str) -> Game:
    """Parse `id priority owner succ,...( "name")?;` records and `live u v;` lines."""
    records = {}
    live_pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ValueError(f"missing ';' in {line!r}")
        body = line[:-1].strip()
        if body.startswith("parity"):
            continue
        if body.startswith("live"):
            u, w = body.split()[1:]
            live_pairs.append((int(u), int(w)))
            continue
        name = None
        if '"' in body:
            body, name = body.split('"', 1)
            name = name.rstrip('"')
        vid, pri, own, succs = body.split(None, 3)
        records[int(vid)] = (int(pri), int(own), [int(s) for s in succs.replace(" ", "").split(",")], name)
    ids = sorted(records)
    index = {vid: i for i, vid in enumerate(ids)}
    g = Game(ids=ids, owner=[], priority=[], succ=[], live=[[] for _ in ids], labels=[], index=index)
    for vid in ids:
        pri, own, succs, name = records[vid]
        g.owner.append(own)
        g.priority.append(pri)
        g.succ.append(sorted({index[s] for s in succs}))
        g.labels.append(name if name is not None else str(vid))
    for u, w in live_pairs:
        g.live[index[u]].append(index[w])
    g.by_label = {lab: v for v, lab in enumerate(g.labels)}
    return g


@dataclass
class Output:
    w_even: List[str]
    w_odd: List[str]
    template_size: int
    template: List[Tuple[int, int]]
    strategy_size: int
    strategy: List[Tuple[int, int]]
    rest: List[str]


def read_output(text: str) -> Output:
    """Parse the region lines and the `template`/`strategy` blocks of the CLI."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("W_Even:") or not lines[1].startswith("W_Odd:"):
        raise CheckFailure("output", "missing region lines")
    w_even = lines[0][len("W_Even:"):].split()
    w_odd = lines[1][len("W_Odd:"):].split()
    blocks = {}
    i = 2
    for head in ("template", "strategy"):
        if i >= len(lines) or not lines[i].startswith(head + " ") or not lines[i].endswith(";"):
            raise CheckFailure("output", f"missing '{head}' block")
        size = int(lines[i][len(head):-1])
        i += 1
        edges = []
        while i < len(lines) and lines[i].startswith("edge "):
            a, b = lines[i][len("edge "):-1].split()
            edges.append((int(a), int(b)))
            i += 1
        blocks[head] = (size, edges)
    return Output(w_even, w_odd, *blocks["template"], *blocks["strategy"], lines[i:])


def _sccs(nodes: Sequence[int], adj: Dict[int, List[int]]) -> List[List[int]]:
    """Tarjan's algorithm with an explicit stack."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack = set()
    stack: List[int] = []
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            succ = adj[v]
            if i < len(succ):
                work[-1] = (v, i + 1)
                w = succ[i]
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, 0))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def on_cycle(nodes: Sequence[int], adj: Dict[int, List[int]]) -> set:
    """Vertices on a cycle of the graph: in an SCC of size > 1 or with a self-loop."""
    out = set()
    for comp in _sccs(nodes, adj):
        if len(comp) > 1 or comp[0] in adj[comp[0]]:
            out.update(comp)
    return out


def bad_recurrent_set(
    region: Sequence[int],
    moves: Dict[int, List[int]],
    required: Dict[int, List[int]],
    priority: Sequence[int],
    bad_parity: int,
) -> Optional[List[int]]:
    """A set some play can visit forever whose top priority has bad_parity.

    A play inside `region` may take any of `moves[v]` from v, and a vertex
    visited forever must have all of `required[v]` (a subset of its moves)
    taken forever. So a recurrent set S is non-empty, strongly connected
    under the moves that stay in S, and contains required[v] for each of its
    vertices. Returns one such S whose top priority has bad_parity, or None.
    """
    preds: Dict[int, List[int]] = {v: [] for v in region}
    for v in region:
        for w in moves[v]:
            if w in preds:
                preds[w].append(v)
    work = [set(region)]
    while work:
        S = work.pop()
        queue = list(S)
        while queue:  # drop vertices that cannot stay in S
            v = queue.pop()
            if v in S and (
                any(w not in S for w in required[v]) or not any(w in S for w in moves[v])
            ):
                S.discard(v)
                queue.extend(u for u in preds[v] if u in S)
        adj = {v: [w for w in moves[v] if w in S] for v in S}
        for comp in _sccs(sorted(S), adj):
            if len(comp) == 1 and comp[0] not in adj[comp[0]]:
                continue
            C = set(comp)
            if any(w not in C for v in C for w in required[v]):
                work.append(C)
                continue
            top = max(priority[v] for v in C)
            if top % 2 == bad_parity:
                return sorted(C)
            work.append({v for v in C if priority[v] != top})
    return None


def _region(game: Game, labels: List[str], name: str) -> set:
    out = set()
    for lab in labels:
        if lab not in game.by_label:
            raise CheckFailure("partition", f"{name} names unknown vertex {lab}")
        v = game.by_label[lab]
        if v in out:
            raise CheckFailure("partition", f"{name} lists {lab} twice")
        out.add(v)
    return out


def _edges(game: Game, pairs: List[Tuple[int, int]], what: str) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {}
    for a, b in pairs:
        if a not in game.index or b not in game.index:
            raise CheckFailure(what, f"edge {a} {b} names an unknown vertex")
        u, w = game.index[a], game.index[b]
        if w not in game.succ[u]:
            raise CheckFailure(what, f"edge {a} {b} is not a game edge")
        if w in out.setdefault(u, []):
            raise CheckFailure(what, f"edge {a} {b} is listed twice")
        out[u].append(w)
    return out


def template_shape(game: Game, kept: Dict[int, List[int]], live: List[List[int]]) -> None:
    """Shape of an Odd template over the region kept's keys: Even vertices
    keep every edge, Odd vertices on a cycle keep all their live edges and
    at most one more, Odd vertices off cycles keep exactly one edge."""
    cyc = on_cycle(sorted(kept), kept)
    for v in kept:
        if game.owner[v] == EVEN:
            if sorted(kept[v]) != game.succ[v]:
                raise CheckFailure("template-shape", f"even vertex {game.labels[v]} drops an edge")
        elif v in cyc:
            if any(w not in kept[v] for w in live[v]) or not 1 <= len(kept[v]) <= len(live[v]) + 1:
                raise CheckFailure("template-shape", f"odd vertex {game.labels[v]} on a cycle keeps a wrong edge set")
        elif len(kept[v]) != 1:
            raise CheckFailure("template-shape", f"odd vertex {game.labels[v]} off cycles keeps {len(kept[v])} edges")


def check(game: Game, out: Output, fair: bool, winner: Optional[int] = None) -> None:
    """Raise CheckFailure on the first rejected check; return if all pass.

    fair selects the reading: live edges count, or are ignored. winner, when
    given, is the player that must win every vertex.
    """
    live = game.live if fair else [[] for _ in range(game.n)]
    w_even = _region(game, out.w_even, "W_Even")
    w_odd = _region(game, out.w_odd, "W_Odd")
    if w_even & w_odd or len(w_even) + len(w_odd) != game.n:
        raise CheckFailure("partition", "regions overlap or miss a vertex")
    for region, player, name in ((w_even, EVEN, "W_Even"), (w_odd, ODD, "W_Odd")):
        for v in region:
            inside = [w in region for w in game.succ[v]]
            if game.owner[v] == player and not any(inside):
                raise CheckFailure("trap", f"{name}: {game.labels[v]} is forced out")
            if game.owner[v] != player and not all(inside):
                raise CheckFailure("trap", f"{name}: {game.labels[v]} can be left by the opponent")
    if winner is not None and (w_odd if winner == EVEN else w_even):
        raise CheckFailure("winner", f"expected {'Even' if winner == EVEN else 'Odd'} to win every vertex")

    sigma = _edges(game, out.strategy, "strategy-shape")
    if out.strategy_size != len(w_even):
        raise CheckFailure("strategy-shape", "declared size differs from |W_Even|")
    for v in range(game.n):
        chosen = sigma.get(v, [])
        wanted = 1 if v in w_even and game.owner[v] == EVEN else 0
        if len(chosen) != wanted or any(w not in w_even for w in chosen):
            raise CheckFailure("strategy-shape", f"vertex {game.labels[v]} has a wrong choice")

    tmpl = _edges(game, out.template, "template-shape")
    if out.template_size != len(w_odd):
        raise CheckFailure("template-shape", "declared size differs from |W_Odd|")
    if any(u not in w_odd or w not in w_odd for u in tmpl for w in tmpl[u]):
        raise CheckFailure("template-shape", "an edge leaves W_Odd")
    kept = {v: tmpl.get(v, []) for v in w_odd}
    template_shape(game, kept, live)

    moves = {v: sigma[v] if game.owner[v] == EVEN else game.succ[v] for v in w_even}
    req = {v: sigma[v] if game.owner[v] == EVEN else live[v] for v in w_even}
    bad = bad_recurrent_set(sorted(w_even), moves, req, game.priority, ODD)
    if bad is not None:
        raise CheckFailure("strategy-wins", "a fair play stays on an odd-dominated set through "
                           + ", ".join(game.labels[v] for v in bad[:8]))
    req = {v: kept[v] if game.owner[v] == ODD else [] for v in w_odd}
    bad = bad_recurrent_set(sorted(w_odd), kept, req, game.priority, EVEN)
    if bad is not None:
        raise CheckFailure("template-wins", "a compliant play stays on an even-dominated set through "
                           + ", ".join(game.labels[v] for v in bad[:8]))
