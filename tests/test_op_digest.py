import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_op_digest_is_reproducible_on_ladder_deep():
    argv = [sys.executable, "tools/op_digest.py", "--seed", "11", "--workload", "ladder-deep"]
    runs = [subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    lines = runs[0].splitlines()
    assert runs[0] == runs[1]
    assert len(lines) == 29 and lines[-1].endswith(" total 28")
    for line in lines[:-1]:
        h, workload, _file, algo = line.split()
        assert len(h) == 64 and workload == "ladder-deep" and algo in ("of-zl", "of-fp", "n-zl")
