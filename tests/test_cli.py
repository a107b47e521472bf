import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairgame
from fairgame import bench, cli, fixpoint
from fairgame.bench import CSV_HEADER, SOLVER_TAGS, run_instance, solve_instance
from fairgame.cli import main
from fairgame.game import OddFairGame
from fairgame.pgfile import mutate_liveness, parse_game, random_game, write_game
from fairgame.templates import OddTemplate, close_live_cycles

from conftest import REDIRECT_GAME, make_ex1, make_g3, redirect_one_even_choice, small_games


@pytest.fixture()
def ex1_file(tmp_path):
    path = tmp_path / "ex1.gm"
    path.write_text(write_game(make_ex1()))
    return str(path)


def test_solve_region_lines(ex1_file, capsys):
    assert main(["solve", ex1_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "W_Even: 2a"
    assert out[1] == "W_Odd: 1a 2b 2c 3a 3b 4a"


def test_solve_algorithms_pair_up(ex1_file, capsys):
    regions = {}
    for algo in ("of-zl", "of-fp", "n-zl", "n-fp"):
        assert main(["solve", ex1_file, "--algo", algo]) == 0
        regions[algo] = capsys.readouterr().out
    assert regions["of-zl"] == regions["of-fp"]
    assert regions["n-zl"] == regions["n-fp"]


def test_solve_rank_lines(ex1_file, capsys):
    assert main(["solve", ex1_file, "--algo", "of-fp", "--ranks"]) == 0
    out = capsys.readouterr().out
    assert "rank 3a (2, 0, 1, 0)" in out
    assert "rank 3b (1, 0, 1, 0)" in out


def test_solve_template_block(ex1_file, capsys):
    assert main(["solve", ex1_file, "--template"]) == 0
    out = capsys.readouterr().out
    assert "template 6;" in out
    assert "strategy 1;" in out
    assert "edge 1 1;" in out


def test_solve_certify_ok(ex1_file, capsys):
    assert main(["solve", ex1_file, "--certify"]) == 0
    assert "both regions certified" in capsys.readouterr().out


def test_solve_certify_refusal_is_exit_2(tmp_path, monkeypatch, capsys):
    path = tmp_path / "redirect.gm"
    path.write_text(REDIRECT_GAME)
    redirect_one_even_choice(monkeypatch)
    for argv in (["solve", str(path), "--certify"], ["check", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "a fair play against the strategy can stay on an odd-dominated cycle through 1"
        )


@pytest.mark.parametrize("algo", ["of-zl", "n-zl"])
def test_certify_has_no_size_bound(tmp_path, capsys, algo):
    path = tmp_path / "big.gm"
    path.write_text(write_game(mutate_liveness(random_game(500, 5, 11), 50, 11)))
    assert main(["solve", str(path), "--algo", algo, "--certify"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "both regions certified"
    assert main(["check", str(path), "--algo", algo]) == 0
    assert capsys.readouterr().out == "both regions certified\n"


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.gm")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.gm"
    bad.write_text("parity x;\n")
    assert main(["solve", str(bad)]) == 1
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_undecodable_input_is_exit_1(tmp_path, capsys, command):
    bad = tmp_path / "bad.gm"
    bad.write_bytes(b"\xff\xfe 1 0 0;\n")
    assert main([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parse error in {bad}: ") and err.count("\n") == 1


def test_solve_timeout_is_exit_3(tmp_path, capsys):
    g = mutate_liveness(random_game(400, 5, 11), 50, 11)
    path = tmp_path / "big.gm"
    path.write_text(write_game(g))
    assert main(["solve", str(path), "--algo", "of-fp", "--timeout", "1e-9"]) == 3
    assert "timeout" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_timeout_zero_is_a_deadline(ex1_file, capsys, command):
    for algo in SOLVER_TAGS:
        assert main([command, ex1_file, "--algo", algo, "--timeout", "0"]) == 3
        assert capsys.readouterr().err == "timeout\n"


@pytest.mark.parametrize("command", ["solve", "check", "bench"])
def test_timeout_nan_is_refused(ex1_file, tmp_path, capsys, command):
    # every comparison with NaN is false, so a NaN deadline would never expire
    argv = [command, ex1_file]
    if command == "bench":
        argv += ["--out", str(tmp_path / "o.csv")]
    for bad in ("nan", "NaN", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--timeout", bad])
        assert exc.value.code == 2
        assert f"argument --timeout: invalid float value: '{bad}'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_check_command(ex1_file, capsys):
    assert main(["check", ex1_file]) == 0
    assert "certified" in capsys.readouterr().out


def test_mutate_determinism(ex1_file, tmp_path, monkeypatch, capsys):
    a, b, c = (str(tmp_path / name) for name in ("a.gm", "b.gm", "c.gm"))
    assert main(["mutate", ex1_file, "--liveness", "50", "--seed", "7", "-o", a]) == 0
    assert main(["mutate", ex1_file, "--liveness", "50", "--seed", "7", "-o", b]) == 0
    monkeypatch.setenv("FAIRGAME_SEED", "7")
    assert main(["mutate", ex1_file, "--liveness", "50", "-o", c]) == 0
    texts = [open(p).read() for p in (a, b, c)]
    assert texts[0] == texts[1] == texts[2]
    parsed = parse_game(texts[0])
    assert parsed.live  # half of the four Odd vertices got live edges


def test_mutate_bad_seed_env_is_exit_1(ex1_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "m.gm"
    monkeypatch.setenv("FAIRGAME_SEED", "abc")
    assert main(["mutate", ex1_file, "--liveness", "50", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "FAIRGAME_SEED is not an integer: 'abc'\n"
    assert not out.exists()
    assert main(["mutate", ex1_file, "--liveness", "50", "--seed", "7", "-o", str(out)]) == 0


def test_mutate_unwritable_output_is_exit_1(ex1_file, tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.gm")
    assert main(["mutate", ex1_file, "--liveness", "50", "-o", out]) == 1
    assert capsys.readouterr().err.startswith(f"cannot write {out}: ")


def test_mutate_liveness_zero_strips(ex1_file, tmp_path, capsys):
    out = str(tmp_path / "z.gm")
    assert main(["mutate", ex1_file, "--liveness", "0", "-o", out]) == 0
    assert not parse_game(open(out).read()).live


def test_mutate_priorities(ex1_file, tmp_path, capsys):
    out = str(tmp_path / "p.gm")
    assert main(["mutate", ex1_file, "--liveness", "30", "--priorities", "4", "--seed", "3", "-o", out]) == 0
    g = parse_game(open(out).read())
    assert all(1 <= g.original_priority[v] <= 4 for v in range(g.n))


def test_mutate_alpha_out_of_range(ex1_file, tmp_path, capsys):
    assert main(["mutate", ex1_file, "--liveness", "150", "-o", str(tmp_path / "x.gm")]) == 1
    assert "alpha" in capsys.readouterr().err


def make_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ex1.gm").write_text(write_game(make_ex1()))
    g = mutate_liveness(random_game(12, 4, 5), 50, 5)
    (corpus / "rand.gm").write_text(write_game(g))
    return corpus


def test_bench_csv_shape(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    out = tmp_path / "bench.csv"
    rc = main(["bench", str(corpus), "--algos", "of-zl,of-fp", "--timeout", "30", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    for row in rows:
        assert row[1] in ("of-zl", "of-fp")
        assert row[7] == "ok"
        assert int(row[8]) + int(row[9]) == int(row[2])


def test_bench_argument_errors(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    out = str(tmp_path / "o.csv")
    assert main(["bench", str(tmp_path / "missing"), "--out", out]) == 1
    assert main(["bench", str(corpus), "--algos", "bogus", "--out", out]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", str(empty), "--out", out]) == 1
    # the one solve entry refuses unknown tags, wherever it is called from
    with pytest.raises(ValueError, match="bogus"):
        cli._solve_instance(make_ex1(), "bogus", None, False)
    with pytest.raises(ValueError, match="bogus"):
        run_instance(str(corpus / "ex1.gm"), "bogus", None)


def test_bench_unwritable_output_is_exit_1(tmp_path, capsys, monkeypatch):
    corpus = make_corpus(tmp_path)
    out = str(tmp_path / "missing" / "o.csv")

    def no_solves(*args, **kwargs):
        pytest.fail("bench solved instances before finding its output unwritable")

    monkeypatch.setattr(cli, "run_bench", no_solves)
    assert main(["bench", str(corpus), "--algos", "of-zl", "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"cannot write {out}: ")


def entry_games():
    yield "ex1", make_ex1()
    yield "g3", make_g3()
    for seed in (3, 8, 21):
        game = mutate_liveness(random_game(14, 4, seed), 60, seed)
        assert game.live
        yield f"rand{seed}", game


@pytest.mark.parametrize("algo", SOLVER_TAGS)
def test_bench_rows_match_the_solve_entry(tmp_path, algo):
    for name, game in entry_games():
        path = tmp_path / f"{name}.gm"
        path.write_text(write_game(game))
        w_even, w_odd, template, strategy, trace = solve_instance(game, algo, None, False)
        assert template is strategy is None
        assert (trace is None) == algo.endswith("-zl")
        record = run_instance(str(path), algo, 30)
        assert record.status == "ok"
        assert (record.win_even, record.win_odd) == (len(w_even), len(w_odd)), name
        full = solve_instance(game, algo, None, True)
        assert full[:2] == (w_even, w_odd), name
        assert full[2] is not None and full[3] is not None


def test_classical_solves_of_a_live_game_are_fair_solves_of_the_game_without_it():
    # n-fp solves and extracts on the live-free game, and builds its template on the given one
    checked = closed = 0
    for _seed, alpha, g in small_games(160, start_seed=600):
        if not alpha:
            continue
        stripped = g.with_live(())
        w_even, w_odd, template, strategy, _ = solve_instance(g, "n-fp", None, True)
        f_even, f_odd, f_template, f_strategy, _ = solve_instance(stripped, "of-fp", None, True)
        assert (w_even, w_odd) == (f_even, f_odd)
        assert strategy == f_strategy
        assert template == OddTemplate(g.n, w_odd, close_live_cycles(g, w_odd, f_template.edges))
        assert solve_instance(g, "n-zl", None, False)[:2] == solve_instance(stripped, "of-zl", None, False)[:2]
        checked += 1
        closed += template != f_template
    assert checked >= 120 and closed >= 20, (checked, closed)


def test_only_callers_that_read_ranks_record_them(ex1_file, tmp_path, monkeypatch, capsys):
    asked = []
    solve = bench.solve_odd_fp

    def recording(view, **kwargs):
        asked.append(kwargs["ranks"])
        return solve(view, **kwargs)

    monkeypatch.setattr(bench, "solve_odd_fp", recording)
    corpus = make_corpus(tmp_path)
    csv = tmp_path / "bench.csv"
    runs = {
        ("solve", ex1_file, "--algo", "of-fp"): [False],
        ("solve", ex1_file, "--algo", "n-fp"): [False],
        ("solve", ex1_file, "--algo", "of-fp", "--timeout", "0"): [False],
        ("solve", ex1_file, "--algo", "of-fp", "--ranks"): [True],
        ("solve", ex1_file, "--algo", "of-zl", "--ranks"): [True],
        ("solve", ex1_file, "--algo", "n-fp", "--template"): [True],
        ("solve", ex1_file, "--algo", "of-fp", "--certify"): [True],
        ("check", ex1_file, "--algo", "of-fp"): [True],
        ("bench", str(corpus), "--algos", "of-fp,n-fp,of-zl", "--out", str(csv)): [False] * 4,
    }
    seen = {}
    for argv, want in runs.items():
        asked.clear()
        code = main(list(argv))
        seen[argv] = (code, capsys.readouterr(), csv.read_text() if argv[0] == "bench" else None)
        assert asked == want, argv
    assert seen[("solve", ex1_file, "--algo", "of-fp", "--timeout", "0")][0] == 3
    assert seen[("check", ex1_file, "--algo", "of-fp")][0] == 0

    def untimed(text):
        return [row.split(",")[:6] + row.split(",")[7:] for row in text.splitlines()]

    # the same printed lines, exit codes and CSV (header included) with ranks recorded
    monkeypatch.setattr(bench, "solve_odd_fp", lambda view, **kwargs: solve(view, **{**kwargs, "ranks": True}))
    for argv, (code, out, text) in seen.items():
        assert main(list(argv)) == code, argv
        assert capsys.readouterr() == out, argv
        if text is not None:
            assert text.splitlines()[0] == CSV_HEADER
            assert untimed(csv.read_text()) == untimed(text)


def test_module_entry_leaves_stderr_empty():
    env = dict(os.environ, PYTHONPATH=str(Path(fairgame.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fairgame.cli", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: fairgame")
    assert proc.stderr == ""


def test_report_svg(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    csv = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--algos", "of-zl,of-fp", "--timeout", "30", "--out", str(csv)]) == 0
    capsys.readouterr()
    svg = tmp_path / "plot.svg"
    assert main(["report", str(csv), "--x", "of-zl", "--y", "of-fp", "-o", str(svg)]) == 0
    out = capsys.readouterr().out
    assert "mutually completed" in out
    assert svg.read_text().lstrip().startswith("<svg")


def test_report_unknown_solver(tmp_path, capsys):
    corpus = make_corpus(tmp_path)
    csv = tmp_path / "bench.csv"
    assert main(["bench", str(corpus), "--algos", "of-zl", "--timeout", "30", "--out", str(csv)]) == 0
    assert main(["report", str(csv), "--x", "of-zl", "--y", "n-fp", "-o", str(tmp_path / "p.svg")]) == 1


def test_classical_results_are_certified_without_live_edges(tmp_path, capsys):
    # certified against the game with its live edges, these regions would be refused
    path = tmp_path / "live.gm"
    path.write_text(write_game(mutate_liveness(random_game(9, 5, 34), 100, 34)))
    for algo in ("n-zl", "n-fp"):
        assert main(["solve", str(path), "--algo", algo, "--certify"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "both regions certified"
        assert main(["check", str(path), "--algo", algo]) == 0
        assert capsys.readouterr().out == "both regions certified\n"


def test_parser_reuse_keeps_defaults(ex1_file, capsys):
    with pytest.raises(SystemExit):
        main(["solve", ex1_file, "--algo", "bogus"])
    assert main(["solve", ex1_file, "--algo", "n-zl", "--template"]) == 0
    capsys.readouterr()
    assert main(["solve", ex1_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["W_Even: 2a", "W_Odd: 1a 2b 2c 3a 3b 4a"]


FAULT_A = "0 5 1 1;\n1 3 1 0,1;\nlive 0 1;\nlive 1 0;\nlive 1 1;\n"


def test_classical_templates_ignore_live_edges(tmp_path, capsys):
    # closed under the live edge 1 -> 1, vertex 1 would keep two edges on its cycle
    path = tmp_path / "fault-a.gm"
    path.write_text(FAULT_A)
    for algo in ("n-zl", "n-fp"):
        assert main(["solve", str(path), "--algo", algo, "--template", "--certify"]) == 0
        out = capsys.readouterr().out
        assert "edge 1 1;" not in out
        assert out.splitlines()[-1] == "both regions certified"
        assert main(["check", str(path), "--algo", algo]) == 0
        assert capsys.readouterr().out == "both regions certified\n"


@pytest.mark.parametrize("algo", ["of-fp", "n-fp"])
def test_one_fixed_point_solve_per_operation(ex1_file, monkeypatch, capsys, algo):
    calls = []
    run = fixpoint._run

    def counting_run(*args, **kwargs):
        calls.append(args[1])
        return run(*args, **kwargs)

    monkeypatch.setattr(fixpoint, "_run", counting_run)
    for argv in (
        ["solve", ex1_file, "--algo", algo, "--template"],
        ["solve", ex1_file, "--algo", algo, "--certify"],
        ["check", ex1_file, "--algo", algo],
    ):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, (argv, calls)
    capsys.readouterr()


def test_mutate_and_classical_solves_build_only_the_parsed_game(tmp_path, monkeypatch, capsys):
    # the mutators and the live-free reading derive their games from the parsed one
    path = tmp_path / "live.gm"
    path.write_text(write_game(mutate_liveness(random_game(30, 4, 8), 50, 8)))
    out = str(tmp_path / "out.gm")
    builds = []
    init = OddFairGame.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(len(args[0]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(OddFairGame, "__init__", counting_init)
    for argv in (
        ["mutate", str(path), "--liveness", "50", "--seed", "3", "-o", out],
        ["mutate", str(path), "--liveness", "30", "--priorities", "6", "--seed", "3", "-o", out],
        ["mutate", str(path), "--liveness", "0", "-o", out],
        ["solve", str(path), "--algo", "n-zl", "--template"],
        ["check", str(path), "--algo", "n-fp"],
    ):
        builds.clear()
        assert main(argv) == 0
        assert builds == [30], argv
    capsys.readouterr()


@pytest.mark.parametrize("algo", ["of-zl", "of-fp", "n-zl", "n-fp"])
def test_priority_gap_game_solves(tmp_path, capsys, algo):
    # both solver families step through levels, so priority 5000 costs two of them
    path = tmp_path / "gap.gm"
    path.write_text("0 5000 0 0;\n1 3 1 1;\n")
    assert main(["solve", str(path), "--algo", algo, "--template"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "W_Even: 0\nW_Odd: 1\n"
        "template 1;\nedge 1 1;\n"
        "strategy 1;\nedge 0 0;\n"
    )


@pytest.mark.parametrize("algo", ["of-zl", "of-fp"])
def test_internal_error_is_one_line_exit_4(ex1_file, capsys, monkeypatch, algo):
    def broken(*args):
        raise RuntimeError("first line\n  second line\nthird")

    monkeypatch.setattr(cli, "_solve_instance", broken)
    assert main(["solve", ex1_file, "--algo", algo]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: first line second line third\n"


def test_bench_jobs_are_clamped(tmp_path, monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 3)
    corpus = make_corpus(tmp_path)
    paths = sorted(str(p) for p in corpus.iterdir())
    algos = ["of-zl", "n-zl"]
    serial = bench.run_bench(paths, algos, 30)
    for jobs, workers in ((10**9, 3), (2, 2)):
        records = bench.run_bench(paths, algos, 30, jobs=jobs)
        assert sizes[-1] == workers
        assert [r.status for r in records] == [r.status for r in serial]
    sizes.clear()
    bench.run_bench(paths[:1], algos[:1], 30, jobs=8)  # one task: no pool
    monkeypatch.setattr(bench.os, "cpu_count", lambda: None)
    bench.run_bench(paths, algos, 30, jobs=8)  # unknown core count: one process
    assert sizes == []


@pytest.mark.parametrize("enabled", [True, False])
def test_solve_pauses_the_collector_and_restores_it(ex1_file, tmp_path, monkeypatch, capsys, enabled):
    states = []
    solve = cli._solve_instance
    monkeypatch.setattr(cli, "_solve_instance", lambda *a: states.append(gc.isenabled()) or solve(*a))
    runs = [
        (["solve", ex1_file, "--template"], 0),
        (["check", ex1_file], 0),
        (["solve", str(tmp_path / "missing.gm")], 1),
        (["solve", ex1_file, "--timeout", "0"], 3),
    ]
    was = gc.isenabled()
    try:
        for argv, code in runs:
            gc.enable() if enabled else gc.disable()
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert states == [False, False, False]  # every solve that got that far ran with it off
