"""Peak resident memory and time of each operation of one benchmark workload:

    python3 benchmarks/op_peaks.py --workload words --seed 7

Builds the workload's inputs in a temporary directory with
``perfbench/workloads.py``, then runs its operations in order in one
fresh interpreter, as ``perfbench/child.py`` does. After each operation
it reads VmHWM, the resident-memory high-water mark, and prints how far
it stands above the level right after the imports, with the operation's
seconds. An operation's row therefore shows the peak of the sequence so
far, not of the operation alone. The package run is the one in the
checkout that holds this script; to measure another commit, run the
script from a copy of that commit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# flags whose value tells apart the operations of one workload
LABEL_FLAGS = ("--mode", "-L", "-l", "--alphabet")
# the one argument that makes this script the interpreter that runs the ops
CHILD = "--child"


def label(argv: list[str]) -> str:
    parts = [argv[0]]
    for flag in LABEL_FLAGS:
        if flag in argv:
            parts.append(f"{flag} {argv[argv.index(flag) + 1]}")
    return " ".join(parts)


def child() -> int:
    """Run the JSON list of operations on stdin; print one JSON list of
    [exit code, VmHWM above the post-import level in KiB, seconds]."""
    ops = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(PERFBENCH))
    from child import high_water_kib

    import lettercorr.cli as cli

    baseline = high_water_kib()
    rows = []
    for argv in ops:
        start = time.perf_counter()
        rc = cli.main(argv)
        rows.append([rc, high_water_kib() - baseline, time.perf_counter() - start])
    json.dump(rows, sys.stdout)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("letters", "words"))
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    args = parser.parse_args()

    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as work:
        prepared = WORKLOADS[args.workload](Path(work), args.seed)
        ops = json.dumps([op.argv for op in prepared.ops])
        proc = subprocess.run(
            [sys.executable, __file__, CHILD], input=ops, text=True, capture_output=True,
            cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    print("op\trc\tpeak_mib\ts")
    for op, (rc, kib, seconds) in zip(prepared.ops, json.loads(proc.stdout)):
        print(f"{label(op.argv)}\t{rc}\t{kib / 1024:.2f}\t{seconds:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(child() if sys.argv[1:] == [CHILD] else main())
