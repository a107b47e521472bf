import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_op_digest_is_reproducible_on_ladder_deep():
    argv = [sys.executable, "tools/op_digest.py", "--seed", "11", "--workload", "ladder-deep"]
    runs = [subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout for _ in range(2)]
    lines = runs[0].splitlines()
    assert runs[0] == runs[1]
    # 26 set-up files (8 bases, their a0 and a50 mutations, 2 fixed), 28 operations, the total
    files, ops = [line.split() for line in lines[:26]], [line.split() for line in lines[26:-1]]
    assert len(lines) == 55 and lines[-1].endswith(" total 28")
    assert [name for _, _, name in files] == sorted(name for _, _, name in files)
    for h, workload, _file in files:
        assert len(h) == 64 and workload == "ladder-deep"
    for h, workload, file, algo in ops:
        assert len(h) == 64 and workload == "ladder-deep" and algo in ("of-zl", "of-fp", "n-zl")
        assert file in {name for _, _, name in files}
