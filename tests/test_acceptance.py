"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints exactly one CRITERION line so a verbose run reads as a
checklist. Failures carry the first few offending cases.
"""

import time
from statistics import mean

from fairgame.bench import CSV_HEADER
from fairgame.certify import certify_partition
from fairgame.cli import main as cli_main
from fairgame.fixpoint import extract_ranks, m_set, solve_even_fp, solve_odd_fp
from fairgame.game import EVEN, ODD, Deadline, Region, SolverTimeout, SubgameView
from fairgame.pgfile import mutate_liveness, parse_game, random_game, write_game
from fairgame.templates import (
    build_rank_template,
    extract_even_strategy,
    validate_even_strategy,
    validate_odd_template,
)
from fairgame.transformers import (
    apre,
    cpre,
    lpre_exists,
    lpre_forall,
    npre,
    pre_exists,
    pre_forall,
)
from fairgame.zielonka import (
    safe_reach_even_fair,
    safe_reach_even_full,
    solve_zielonka_fair,
    solve_zielonka_normal,
)

from conftest import REDIRECT_GAME, classical, make_ex1, redirect_one_even_choice, small_games
from test_fixpoint import level_witnesses
from test_transformers import seeded_subsets
from test_zielonka import corridor_cases

GOLDEN_W_ODD = {"1a", "2b", "2c", "3a", "3b", "4a"}


def finish(n, problems):
    ok = not problems
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, problems[:5]


def test_criterion_1_golden_regions():
    problems = []
    g = make_ex1()
    view = SubgameView.full(g)
    t0 = time.perf_counter()
    w_odd, _ = solve_odd_fp(view)
    t_fp = time.perf_counter() - t0
    t0 = time.perf_counter()
    art = solve_zielonka_fair(view)
    t_zl = time.perf_counter() - t0
    if {g.names[v] for v in w_odd} != GOLDEN_W_ODD:
        problems.append("fixpoint region is off")
    if art.win_odd != w_odd or {g.names[v] for v in art.win_even} != {"2a"}:
        problems.append("recursive region is off")
    if t_fp >= 1.0 or t_zl >= 1.0:
        problems.append(f"too slow: fp {t_fp:.3f}s, zl {t_zl:.3f}s")
    finish(1, problems)


def test_criterion_2_trace_checkpoints():
    problems = []
    g = make_ex1()
    _, tr = solve_odd_fp(SubgameView.full(g), snapshots=True)
    c = lambda i: {v for v in range(g.n) if g.priority[v] == i}
    by_name = {g.names[v]: v for v in range(g.n)}
    expected = {
        ("X1", (0, 0, 0, 1)): c(3) | c(1),
        ("Y2", (0, 0, 1)): c(3),
        ("Y2", (0, 0, 2)): c(3) | {by_name["2b"]},
        ("Y4", (1,)): {by_name["2b"], by_name["2c"], by_name["3b"]},
    }
    for key, want in expected.items():
        got = set(tr.snapshots.get(key, ()))
        if got != want:
            problems.append((key, sorted(got), sorted(want)))
    finish(2, problems)


def test_criterion_3_ranks_and_m_set():
    problems = []
    g = make_ex1()
    _, tr = solve_odd_fp(SubgameView.full(g), ranks=True)
    ranks = {g.names[v]: r.interleaved() for v, r in extract_ranks(tr).items()}
    if ranks.get("3a") != (2, 0, 1, 0):
        problems.append(f"rank(3a) = {ranks.get('3a')}")
    m = m_set(tr)
    if {g.names[v] for v in m} != {"3b"}:
        problems.append("M set is off")
    if not all(g.priority[v] % 2 == 1 for v in m):
        problems.append("M contains an even priority")
    finish(3, problems)


def test_criterion_4_cross_solver_agreement():
    problems = []
    start = time.monotonic()
    count = 0
    for i in range(120):
        n = 2 + (i * 7) % 29
        p = 1 + i % 6
        base = random_game(n, p, 9000 + i)
        for alpha in (0, 30, 50, 80, 100):
            g = mutate_liveness(base, alpha, 9000 + i)
            view = SubgameView.full(g)
            fp, _ = solve_odd_fp(view, ranks=False)
            zl = solve_zielonka_fair(view).win_odd
            if fp != zl:
                problems.append((i, alpha, "fair pair disagrees"))
            if alpha == 0:
                nfp, _ = solve_odd_fp(classical(view), ranks=False)
                nzl = solve_zielonka_normal(view).win_odd
                if not (fp == nfp == nzl):
                    problems.append((i, "normal pair disagrees"))
            count += 1
    elapsed = time.monotonic() - start
    if count < 500:
        problems.append(f"only {count} instances")
    if elapsed >= 300:
        problems.append(f"took {elapsed:.0f}s")
    finish(4, problems)


def test_criterion_5_certified_artifacts():
    problems = []
    for seed, _alpha, g in small_games(400, max_n=8, start_seed=20000):
        view = SubgameView.full(g)
        w_odd, tr = solve_odd_fp(view, ranks=True)
        ranks = extract_ranks(tr) if w_odd else {}
        template = build_rank_template(view, w_odd, ranks)
        strategy = extract_even_strategy(view)
        res = certify_partition(g, w_odd.complement(), w_odd, strategy, template)
        if not res.certified:
            problems.append((seed, "fixpoint artifacts", res.detail))
        art = solve_zielonka_fair(view, extract=True)
        res2 = certify_partition(
            g, art.win_even, art.win_odd, art.even_strategy, art.odd_template
        )
        if not res2.certified:
            problems.append((seed, "recursive artifacts", res2.detail))
    finish(5, problems)


def test_criterion_6_invariants():
    problems = []

    dualities = 0
    for seed, _alpha, g in small_games(80, start_seed=100):
        view = SubgameView.full(g)
        full = Region.full(g.n)
        for s in seeded_subsets(g, seed):
            sr = Region.of(g.n, s)
            for lam in (EVEN, ODD):
                lhs = full - pre_exists(view, lam, full - sr)
                if lhs != view.vertices(1 - lam) | pre_forall(view, lam, sr):
                    problems.append((seed, "pre duality"))
            if full - lpre_exists(view, full - sr) != view.vertices(EVEN) | lpre_forall(view, sr):
                problems.append((seed, "lpre duality"))
            if full - cpre(view, EVEN, full - sr) != cpre(view, ODD, sr):
                problems.append((seed, "cpre duality"))
            for t in seeded_subsets(g, seed + 7):
                tr = Region.of(g.n, t)
                if npre(view, sr, tr) != full - apre(view, full - sr, full - tr):
                    problems.append((seed, "npre against apre"))
                dualities += 1
    if dualities < 200:
        problems.append(f"only {dualities} duality cases")

    reaches = 0
    for seed, _alpha, g in small_games(150, start_seed=1800):
        view = SubgameView.full(g)
        for sset, rset in corridor_cases(g, seed):
            S, R = Region.of(g.n, sset), Region.of(g.n, rset)
            if not safe_reach_even_full(view, S, R).issubset(safe_reach_even_fair(view, S, R).region):
                problems.append((seed, "exact reach escapes the layered reach"))
            reaches += 1
    if reaches < 200:
        problems.append(f"only {reaches} reach cases")

    pairs = 0
    for i in range(70):
        base = random_game(3 + i % 12, 1 + i % 5, 26000 + i)
        prev_live, prev_even = None, None
        for alpha in (0, 30, 80, 100):
            g = mutate_liveness(base, alpha, 26000 + i)
            live = set(g.live)
            w_even, _ = solve_even_fp(SubgameView.full(g))
            if prev_live is not None:
                if not prev_live <= live:
                    problems.append((i, alpha, "live sets not nested"))
                if not prev_even.issubset(w_even):
                    problems.append((i, alpha, "more liveness shrank the Even region"))
                pairs += 1
            prev_live, prev_even = live, w_even
    if pairs < 200:
        problems.append(f"only {pairs} monotonicity cases")

    traced = 0
    for seed, _alpha, g in small_games(360, start_seed=3000):
        view = SubgameView.full(g)
        w_odd, tr = solve_odd_fp(view, ranks=True, snapshots=True)
        if not w_odd:
            continue
        ranks = extract_ranks(tr)
        win = set(w_odd)
        for v in win:
            wset = level_witnesses(tr, ranks, v, g.level[v])
            if g.owner[v] == EVEN:
                ok = all(w in wset for w in g.succ[v])
            else:
                ok = any(w in wset for w in g.succ[v] if w in win)
            if not ok:
                problems.append((seed, v, "rank witness missing"))
        traced += 1
    if traced < 200:
        problems.append(f"only {traced} traced solves")

    validated = 0
    for seed, _alpha, g in small_games(250, max_n=8, start_seed=27000):
        view = SubgameView.full(g)
        w_odd, tr = solve_odd_fp(view, ranks=True)
        ranks = extract_ranks(tr) if w_odd else {}
        if validate_odd_template(g, build_rank_template(view, w_odd, ranks)) is not None:
            problems.append((seed, "rank template rejected"))
        if validate_even_strategy(g, extract_even_strategy(view)) is not None:
            problems.append((seed, "extracted strategy rejected"))
        art = solve_zielonka_fair(view, extract=True)
        if validate_odd_template(g, art.odd_template) is not None:
            problems.append((seed, "recursive template rejected"))
        if validate_even_strategy(g, art.even_strategy) is not None:
            problems.append((seed, "recursive strategy rejected"))
        validated += 1
    if validated < 200:
        problems.append(f"only {validated} validator cases")

    finish(6, problems)


def test_criterion_7_scale_timing():
    problems = []
    start = time.monotonic()
    of_zl, n_zl, of_fp = [], [], []
    for i in range(20):
        n = 500 + 100 * i
        p = 5 + (i % 2)
        g = mutate_liveness(random_game(n, p, 1000 + i), 50, 1000 + i)
        view = SubgameView.full(g)
        best_f = best_n = None
        for _ in range(3):
            t0 = time.perf_counter()
            art = solve_zielonka_fair(view)
            dt = time.perf_counter() - t0
            best_f = dt if best_f is None else min(best_f, dt)
            t0 = time.perf_counter()
            solve_zielonka_normal(view)
            dt = time.perf_counter() - t0
            best_n = dt if best_n is None else min(best_n, dt)
        of_zl.append(best_f)
        n_zl.append(best_n)
        try:
            t0 = time.perf_counter()
            w_odd, _ = solve_odd_fp(view, ranks=False, deadline=Deadline(10.0))
            of_fp.append(time.perf_counter() - t0)
            if w_odd != art.win_odd:
                problems.append((i, "solvers disagree at scale"))
        except SolverTimeout:
            of_fp.append(None)
    both = [(z, f) for z, f in zip(of_zl, of_fp) if f is not None]
    if not both:
        problems.append("fixpoint solver finished nothing inside 10s")
    else:
        mz = mean(z for z, _ in both)
        mf = mean(f for _, f in both)
        if mz > mf:
            problems.append(f"recursive mean {mz * 1e3:.1f}ms above fixpoint mean {mf * 1e3:.1f}ms")
    if mean(of_zl) > 3 * mean(n_zl):
        problems.append(
            f"fairness overhead {mean(of_zl) * 1e3:.1f}ms vs {mean(n_zl) * 1e3:.1f}ms exceeds 3x"
        )
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        problems.append(f"took {elapsed:.0f}s")
    finish(7, problems)


def test_criterion_8_io_and_exit_codes(tmp_path, capsys, monkeypatch):
    problems = []

    for i in range(30):
        alpha = (0, 30, 50, 80, 100)[i % 5]
        g = mutate_liveness(random_game(3 + i, 1 + i % 6, 500 + i), alpha, 500 + i)
        text = write_game(g)
        h = parse_game(text)
        if write_game(h) != text:
            problems.append((i, "round trip changed the text"))
        same = (
            list(h.owner) == list(g.owner)
            and list(h.original_priority) == list(g.original_priority)
            and [list(x) for x in h.succ] == [list(x) for x in g.succ]
            and sorted(h.live) == sorted(g.live)
        )
        if not same:
            problems.append((i, "round trip changed the game"))

    ex1_path = tmp_path / "ex1.gm"
    ex1_path.write_text(write_game(make_ex1()))
    if parse_game(ex1_path.read_text()).names != make_ex1().names:
        problems.append("names lost in the round trip")

    if cli_main(["solve", str(ex1_path)]) != 0:
        problems.append("solve exit code")
    out = capsys.readouterr().out.splitlines()
    if out[:2] != ["W_Even: 2a", "W_Odd: 1a 2b 2c 3a 3b 4a"]:
        problems.append(f"region lines: {out[:2]}")

    bad = tmp_path / "bad.gm"
    bad.write_text("parity nope;\n")
    if cli_main(["solve", str(bad)]) != 1:
        problems.append("parse failure exit code")
    redirect = tmp_path / "redirect.gm"
    redirect.write_text(REDIRECT_GAME)
    with monkeypatch.context() as patch:
        redirect_one_even_choice(patch)
        if cli_main(["solve", str(redirect), "--certify"]) != 2:
            problems.append("certification failure exit code")
    big = tmp_path / "big.gm"
    big.write_text(write_game(mutate_liveness(random_game(400, 5, 11), 50, 11)))
    if cli_main(["solve", str(big), "--algo", "of-fp", "--timeout", "1e-9"]) != 3:
        problems.append("timeout exit code")
    capsys.readouterr()

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, seed in (("a.gm", 31), ("b.gm", 32)):
        (corpus / name).write_text(write_game(mutate_liveness(random_game(10, 4, seed), 50, seed)))
    csv = tmp_path / "bench.csv"
    rc = cli_main(["bench", str(corpus), "--algos", "of-zl,of-fp", "--timeout", "30", "--out", str(csv)])
    capsys.readouterr()
    if rc != 0:
        problems.append("bench exit code")
    else:
        lines = csv.read_text().splitlines()
        if lines[0] != CSV_HEADER:
            problems.append(f"csv header: {lines[0]!r}")
        if len(lines) != 5:
            problems.append("csv row count")

    finish(8, problems)
