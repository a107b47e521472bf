"""The benchmark's trace mode wraps program functions by name; a rename breaks it."""

import os
import subprocess
import sys
from pathlib import Path

import fairgame
from fairgame.pgfile import write_game

from conftest import make_ex1

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"

# in a child process, so that the wrapped functions stay out of the other tests
TRACED_SOLVES = """
import contextlib, importlib.util, io, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from fairgame import cli
tracer = spans.Tracer()
tracer.install()
for algo in ("of-fp", "of-zl"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", sys.argv[2], "--algo", algo, "--template", "--certify"])
    assert code == 0, (algo, code)
print("\\n".join(sorted({tracer.names[i] for i in tracer.cols["name"]})))
"""

EXPECTED = {
    "pgfile.parse",
    "game.construct",
    "game.view",
    "transformers.kernel_build",
    "transformers.count_in",
    "transformers.operator",
    "fixpoint.solve",
    "zielonka.solve",
    "fixpoint.extract_ranks",
    "templates.close_live_cycles",
    "templates.build_rank_template",
    "templates.even_strategy",
    "templates.format",
    "certify.certify",
}


def test_trace_mode_records_every_layer(tmp_path):
    game = tmp_path / "ex1.gm"
    game.write_text(write_game(make_ex1()))
    env = dict(os.environ, PYTHONPATH=str(Path(fairgame.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SOLVES, str(SPANS), str(game)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert EXPECTED <= set(proc.stdout.split()), EXPECTED - set(proc.stdout.split())
