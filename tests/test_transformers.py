from types import SimpleNamespace

import pytest

from fairgame.game import EVEN, ODD, Region, SubgameView
from fairgame.transformers import (
    Kernels,
    apre,
    cpre,
    lpre_exists,
    lpre_forall,
    npre,
    pre_exists,
    pre_forall,
)

from conftest import build_game, small_games


# independent reference semantics, straight off the definitions
def ref_pre_exists(g, player, s):
    return {v for v in range(g.n) if g.owner[v] == player and set(g.succ[v]) & s}


def ref_pre_forall(g, player, s):
    return {v for v in range(g.n) if g.owner[v] == player and set(g.succ[v]) <= s}


def ref_lpre_exists(g, s):
    return {v for v in range(g.n) if g.owner[v] == ODD and set(g.live_succ[v]) & s}


def ref_lpre_forall(g, s):
    return {v for v in range(g.n) if g.owner[v] == ODD and set(g.live_succ[v]) <= s}


def ref_cpre(g, player, s):
    return ref_pre_exists(g, player, s) | ref_pre_forall(g, 1 - player, s)


def ref_apre(g, s, t):
    return ref_cpre(g, EVEN, t) | (ref_lpre_exists(g, t) & ref_pre_forall(g, ODD, s))


def ref_npre(g, s, t):
    return ref_cpre(g, ODD, t) & (
        {v for v in range(g.n) if g.owner[v] == EVEN}
        | ref_lpre_forall(g, t)
        | ref_pre_exists(g, ODD, s)
    )


def seeded_subsets(g, seed, count=3):
    # deterministic sample subsets including the boundary cases
    out = [set(), set(range(g.n))]
    x = seed * 2654435761 % (1 << 32)
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append({v for v in range(g.n) if (x >> v) & 1})
    return out


CASES = small_games(80, start_seed=100)


@pytest.mark.parametrize("op", ["pre_e", "pre_a", "lpre_e", "lpre_a", "cpre", "apre", "npre"])
def test_operators_match_reference(op):
    checked = 0
    for seed, _alpha, g in CASES:
        view = SubgameView.full(g)
        for s in seeded_subsets(g, seed):
            sr = Region.of(g.n, s)
            for t in seeded_subsets(g, seed + 1):
                tr = Region.of(g.n, t)
                if op == "pre_e":
                    got = {set(pre_exists(view, p, sr)) == ref_pre_exists(g, p, s) for p in (EVEN, ODD)}
                    assert got == {True}
                elif op == "pre_a":
                    got = {set(pre_forall(view, p, sr)) == ref_pre_forall(g, p, s) for p in (EVEN, ODD)}
                    assert got == {True}
                elif op == "lpre_e":
                    assert set(lpre_exists(view, sr)) == ref_lpre_exists(g, s)
                elif op == "lpre_a":
                    assert set(lpre_forall(view, sr)) == ref_lpre_forall(g, s)
                elif op == "cpre":
                    for p in (EVEN, ODD):
                        assert set(cpre(view, p, sr)) == ref_cpre(g, p, s)
                elif op == "apre":
                    assert set(apre(view, sr, tr)) == ref_apre(g, s, t)
                else:
                    assert set(npre(view, sr, tr)) == ref_npre(g, s, t)
                checked += 1
                if op not in ("apre", "npre"):
                    break
    assert checked >= 200


def test_duality_pre():
    cases = 0
    for seed, _alpha, g in CASES:
        view = SubgameView.full(g)
        full = Region.full(g.n)
        for s in seeded_subsets(g, seed):
            sr = Region.of(g.n, s)
            for lam in (EVEN, ODD):
                lhs = full - pre_exists(view, lam, full - sr)
                rhs = view.vertices(1 - lam) | pre_forall(view, lam, sr)
                assert lhs == rhs
            cases += 1
    assert cases >= 200


def test_duality_lpre():
    cases = 0
    for seed, _alpha, g in CASES:
        view = SubgameView.full(g)
        full = Region.full(g.n)
        for s in seeded_subsets(g, seed):
            sr = Region.of(g.n, s)
            lhs = full - lpre_exists(view, full - sr)
            rhs = view.vertices(EVEN) | lpre_forall(view, sr)
            assert lhs == rhs
            cases += 1
    assert cases >= 200


def test_duality_cpre():
    cases = 0
    for seed, _alpha, g in CASES:
        view = SubgameView.full(g)
        full = Region.full(g.n)
        for s in seeded_subsets(g, seed):
            sr = Region.of(g.n, s)
            assert full - cpre(view, EVEN, full - sr) == cpre(view, ODD, sr)
            cases += 1
    assert cases >= 200


def test_duality_npre_apre():
    cases = 0
    for seed, _alpha, g in CASES:
        view = SubgameView.full(g)
        full = Region.full(g.n)
        for s in seeded_subsets(g, seed):
            for t in seeded_subsets(g, seed + 7):
                sr, tr = Region.of(g.n, s), Region.of(g.n, t)
                assert npre(view, sr, tr) == full - apre(view, full - sr, full - tr)
                cases += 1
    assert cases >= 200


def test_monotonicity_in_each_argument():
    cases = 0
    for seed, _alpha, g in small_games(50, max_n=10, start_seed=400):
        view = SubgameView.full(g)
        subs = seeded_subsets(g, seed)
        for a in subs:
            for b in subs:
                if not a <= b:
                    continue
                ra, rb = Region.of(g.n, a), Region.of(g.n, b)
                for p in (EVEN, ODD):
                    assert pre_exists(view, p, ra).issubset(pre_exists(view, p, rb))
                    assert pre_forall(view, p, ra).issubset(pre_forall(view, p, rb))
                    assert cpre(view, p, ra).issubset(cpre(view, p, rb))
                assert lpre_exists(view, ra).issubset(lpre_exists(view, rb))
                assert lpre_forall(view, ra).issubset(lpre_forall(view, rb))
                fixed = Region.of(g.n, subs[-1])
                assert apre(view, ra, fixed).issubset(apre(view, rb, fixed))
                assert apre(view, fixed, ra).issubset(apre(view, fixed, rb))
                assert npre(view, ra, fixed).issubset(npre(view, rb, fixed))
                assert npre(view, fixed, ra).issubset(npre(view, fixed, rb))
                cases += 1
    assert cases >= 200


def test_named_values_on_ex1(ex1, ex1_view):
    names = ex1.names
    c3 = Region.of(ex1.n, [v for v in range(ex1.n) if ex1.priority[v] == 3])
    c1 = Region.of(ex1.n, [v for v in range(ex1.n) if ex1.priority[v] == 1])
    empty = Region.empty(ex1.n)
    assert cpre(ex1_view, ODD, empty) == empty
    got = {names[v] for v in cpre(ex1_view, ODD, c3)}
    assert "2b" in got  # via the edge 2b -> 3b
    assert npre(ex1_view, empty, c3 | c1) == empty
    full = Region.full(ex1.n)
    assert npre(ex1_view, full, full) == full


def test_live_free_game_degenerates():
    g = build_game([0, 1], [2, 1], [[1], [0, 1]])
    view = SubgameView.full(g)
    full = Region.full(2)
    s = Region.of(2, [0])
    assert lpre_exists(view, full) == Region.empty(2)
    assert lpre_forall(view, s) == view.vertices(ODD)
    assert apre(view, s, s) == cpre(view, EVEN, s)


def test_apre_with_full_safety_drops_the_forall_guard():
    cases = 0
    for seed, _alpha, g in CASES[:40]:
        view = SubgameView.full(g)
        full = Region.full(g.n)
        for t in seeded_subsets(g, seed + 3):
            tr = Region.of(g.n, t)
            assert apre(view, full, tr) == cpre(view, EVEN, tr) | lpre_exists(view, tr)
            cases += 1
    assert cases >= 100


def test_operand_outside_active_rejected(ex1):
    view = SubgameView(ex1, Region.of(ex1.n, [1]))
    with pytest.raises(ValueError):
        pre_exists(view, EVEN, Region.of(ex1.n, [0, 1]))


def restricted(g, keep):
    """g's arena cut down to the vertices in keep, as the reference semantics read it."""
    return SimpleNamespace(
        n=g.n,
        owner=[o if v in keep else None for v, o in enumerate(g.owner)],
        succ=[[w for w in g.succ[v] if w in keep] for v in range(g.n)],
        live_succ=[[w for w in g.live_succ[v] if w in keep] for v in range(g.n)],
    )


def dead_end_free_core(g, keep):
    """The largest subset of keep in which every vertex keeps a successor."""
    keep = set(keep)
    while True:
        drop = {v for v in keep if not keep.intersection(g.succ[v])}
        if not drop:
            return keep
        keep -= drop


def test_restriction_coherence_on_traps():
    # the threshold operators on a sub-view against the reference semantics
    # over the sub-arena's edges: inactive vertices never qualify, and an Odd
    # vertex whose live edges all leave the sub-arena has none in it. The
    # part forms of Kernels (masks from counts) are checked there too, with
    # the live edges on and off
    from fairgame.zielonka import solve_zielonka_normal

    cases = cut_live = 0
    for seed, _alpha, g in small_games(40, start_seed=700):
        view = SubgameView.full(g)
        art = solve_zielonka_normal(view)
        # the two winning regions are traps; the cores of seeded subsets are
        # sub-arenas that cut live edges more often
        arenas = [(art.win_even, ODD), (art.win_odd, EVEN)] + [
            (Region.of(g.n, dead_end_free_core(g, s)), None) for s in seeded_subsets(g, seed, 4)[2:]
        ]
        for arena, trapped in arenas:
            if not arena:
                continue
            sub = SubgameView(g, arena)
            h = restricted(g, set(arena))
            cut_live += sum(1 for v in arena if g.live_succ[v] and not h.live_succ[v])
            operands = [Region.of(g.n, s & set(arena)) for s in seeded_subsets(g, 5)]
            for sr in operands:
                if trapped is not None:
                    assert pre_exists(sub, trapped, sr) == pre_exists(view, trapped, sr) & arena
                    assert pre_forall(sub, trapped, sr) == pre_forall(view, trapped, sr) & arena
                s = set(sr)
                for p in (EVEN, ODD):
                    assert set(pre_exists(sub, p, sr)) == ref_pre_exists(h, p, s)
                    assert set(pre_forall(sub, p, sr)) == ref_pre_forall(h, p, s)
                    assert set(cpre(sub, p, sr)) == ref_cpre(h, p, s)
                assert set(lpre_exists(sub, sr)) == ref_lpre_exists(h, s)
                assert set(lpre_forall(sub, sr)) == ref_lpre_forall(h, s)
                for use_live in (True, False):
                    K, m = Kernels(sub, use_live), sr.mask
                    hl = h if use_live else SimpleNamespace(**{**vars(h), "live_succ": [[]] * g.n})
                    for p in (EVEN, ODD):
                        assert K.cpre_of(p, K.count_in(m)) == cpre(sub, p, sr).mask
                    lc = K.live_count_in(m)
                    assert K.lpre_of(EVEN, lc) == K.lpre_exists(m) == Region.of(g.n, ref_lpre_exists(hl, s)).mask
                    assert K.lpre_of(ODD, lc) == K.lpre_forall(m) == Region.of(g.n, ref_lpre_forall(hl, s)).mask
                for tr in operands:
                    assert set(apre(sub, sr, tr)) == ref_apre(h, s, set(tr))
                    assert set(npre(sub, sr, tr)) == ref_npre(h, s, set(tr))
                cases += 1
    assert cases >= 100
    assert cut_live >= 10
