"""Hash the output of every benchmark operation, to compare two source trees.

    python3 tools/op_digest.py --seed N [--workload W]

Run from the root of a source checkout: the program is imported from ./src
and the plans are read from ./benchmark/workloads.py, unchanged. Each
workload's files are built in a temporary directory by the set-up of
benchmark/run.py, and each operation runs once in-process as `fairgame solve
FILE --algo A --template`, plus `--certify` where the plan certifies. Per
workload, one line per set-up file, in name order, gives the SHA-256 of its
bytes, then the workload and the file; then one line per operation gives the
SHA-256 of its exit code, stdout and stderr, then the workload, the file and
the algorithm. The last line hashes all of them and counts the operations.
The temporary directory's path is masked before hashing. To compare two
checkouts:

    (cd parent && python3 /path/to/tools/op_digest.py --seed 11) > a.txt
    python3 tools/op_digest.py --seed 11 > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path


def digest(cli, argv, work: Path) -> str:
    """SHA-256 of (exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the operation failed; keep going
            code = f"exception {type(exc).__name__}"
    text = repr((code, out.getvalue(), err.getvalue())).replace(str(work), "WORK")
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave the checkout's benchmark/ as it is
    sys.path.insert(0, str(Path.cwd() / "benchmark"))
    import run
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: all")
    args = ap.parse_args(argv)

    cli = run.load_program()
    total, count = hashlib.sha256(), 0

    def emit(line):
        print(line, flush=True)
        total.update(line.encode() + b"\n")

    for name in [args.workload] if args.workload else list(workloads.WORKLOADS):
        plan = workloads.WORKLOADS[name](args.seed)
        extra = ["--certify"] if plan.certify else []
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            run.setup(cli, plan, work, None, 0)
            for path in sorted(work.iterdir()):
                emit(f"{hashlib.sha256(path.read_bytes()).hexdigest()} {name} {path.name}")
            for op in plan.ops:
                h = digest(cli, ["solve", str(work / op.file), "--algo", op.algo, "--template"] + extra, work)
                emit(f"{h} {name} {op.file} {op.algo}")
                count += 1
    print(f"{total.hexdigest()} total {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
