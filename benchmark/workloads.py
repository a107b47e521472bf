"""The benchmark's workloads: which games are built and which operations run.

A workload is a `Plan`: base games written by the benchmark's own
generators, `fairgame mutate --liveness` jobs that derive the instances from
them, fixed files written as they are, and the operations, one
`fairgame solve FILE --algo A --template` call each.

Two rules keep every seeded operation free of the two known wrong outputs,
so that the failed share of a run does not depend on the seed:

* `n-zl` and `n-fp` read the live-free (alpha 0) file of each base game.
  The classical reading ignores live edges, so that file stands for every
  alpha, and their templates are closed under the file's live edges
  (fault A).
* `of-fp` and `n-fp` build their Odd template from solver ranks and can
  close an even-dominated cycle (fault B). On random games `of-fp` runs at
  alpha 100 only, where every Odd edge is live and a template cycle keeps
  all of them, so a compliant cycle is a fair play Odd wins; `n-fp` runs
  only on ladders, where no Odd vertex of Odd's region has a choice.

Both faults stay in `ladder-deep` and `small-check` through the two fixed
reproducers. `random-large` has none: its operations take a second or more
each, and a few millisecond-long ones would set its median operation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import gen

EVEN, ODD = 0, 1

# n-zl and n-fp template closed under live edges of the file (fault A).
FAULT_A = "0 5 1 1;\n1 3 1 0,1;\nlive 0 1;\nlive 1 0;\nlive 1 1;\n"
# of-fp and n-fp rank template closes the even cycle 3, 4, 5, 8 (fault B).
FAULT_B = """parity 11;
0 2 0 0,2;
1 2 0 4,6,9;
2 2 1 8;
3 2 1 1,5;
4 1 1 8,10;
5 2 1 4,6,7;
6 1 1 4,6,7;
7 2 0 1,5,10;
8 2 1 3,9;
9 1 0 3,9;
10 3 0 0;
11 3 1 2,5,8;
"""


@dataclass(frozen=True)
class Op:
    file: str
    algo: str
    winner: Optional[int] = None  # the player that wins every vertex, if known
    fault: Optional[str] = None  # the known fault this operation reproduces, if any


@dataclass
class Plan:
    bases: List[Tuple[str, Callable[[], str]]] = field(default_factory=list)
    mutations: List[Tuple[str, str, int, int]] = field(default_factory=list)  # out, base, alpha, seed
    fixed: List[Tuple[str, str]] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    certify: bool = False
    setup_repeats: int = 5  # set-up runs per benchmark run; setup_s is their median

    def instance(self, name: str, text: Callable[[], str], alphas, seed: int) -> dict:
        """A base game and its mutations; returns the file of each alpha."""
        base = f"{name}.base.gm"
        self.bases.append((base, text))
        files = {}
        for a in sorted(set(alphas) | {0}):
            files[a] = f"{name}.a{a}.gm"
            self.mutations.append((files[a], base, a, seed))
        return files

    def add_faults(self, algos) -> None:
        self.fixed += [("fault-a.gm", FAULT_A), ("fault-b.gm", FAULT_B)]
        self.ops += [Op("fault-a.gm", a, fault="A" if a.startswith("n-") else None) for a in algos]
        self.ops += [Op("fault-b.gm", a, fault="B" if a.endswith("-fp") else None) for a in algos]


def random_large(seed: int) -> Plan:
    plan = Plan(setup_repeats=3)  # one set-up takes seconds here
    for i, (n, p, alphas) in enumerate([(10_000, 8, (0, 30, 100)), (20_000, 6, (0,)), (30_000, 4, (0,))]):
        s = gen.sub_seed(seed, 1, i)
        files = plan.instance(f"rand{n}", lambda n=n, p=p, s=s: gen.random_game(n, p, s), alphas, s)
        plan.ops += [Op(files[a], "of-zl") for a in alphas]
        plan.ops.append(Op(files[0], "n-zl"))
    return plan


DEEP_RUNGS = 1000
OFFSET_LADDERS = [(20, 2), (12, 4), (6, 6)]  # (rungs, priority offset), of-fp only


def ladder_deep(seed: int) -> Plan:
    plan = Plan(setup_repeats=15)  # one set-up takes a fifth of a second here
    for k, offset in [(DEEP_RUNGS, 0)] + OFFSET_LADDERS:
        algos = ("of-zl", "of-fp") if offset == 0 else ("of-fp",)
        for dual in (False, True):
            name = f"{'dual' if dual else 'ladder'}{k}+{offset}"
            files = plan.instance(
                name, lambda k=k, d=dual, o=offset: gen.ladder(k, dual=d, offset=o),
                (0, 50), gen.sub_seed(seed, 2, k, dual),
            )
            winner = EVEN if dual else ODD
            plan.ops += [Op(files[a], algo, winner) for a in (0, 50) for algo in algos]
            if offset == 0:
                plan.ops.append(Op(files[0], "n-zl", winner))
    plan.add_faults(("of-zl", "n-zl", "of-fp"))
    return plan


SMALL_GAMES = 300


def small_check(seed: int) -> Plan:
    plan = Plan(certify=True)
    for i in range(SMALL_GAMES):
        s = gen.sub_seed(seed, 3, i)
        alpha = 100 * i // (SMALL_GAMES - 1)
        files = plan.instance(f"small{i}", lambda s=s: gen.small_game(s), (alpha, 100), s)
        plan.ops += [Op(files[alpha], "of-zl"), Op(files[0], "n-zl"), Op(files[100], "of-fp")]
    for k, offset in [(1, 0), (2, 0), (3, 0), (4, 0), (1, 2), (2, 2)]:
        for dual in (False, True):
            name = f"{'dual' if dual else 'ladder'}{k}+{offset}"
            files = plan.instance(
                name, lambda k=k, d=dual, o=offset: gen.ladder(k, dual=d, offset=o),
                (0, 50, 100), gen.sub_seed(seed, 4, k, offset, dual),
            )
            winner = EVEN if dual else ODD
            plan.ops += [Op(files[a], algo, winner) for a in (0, 50, 100) for algo in ("of-zl", "of-fp")]
            plan.ops += [Op(files[0], algo, winner) for algo in ("n-zl", "n-fp")]
    plan.add_faults(("of-zl", "n-zl", "of-fp", "n-fp"))
    return plan


WORKLOADS = {
    "random-large": random_large,
    "ladder-deep": ladder_deep,
    "small-check": small_check,
}
