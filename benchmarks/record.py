"""Record one point of the bench trajectory, from the root of a checkout:

    python3 benchmarks/record.py BENCH_<n>.json

Runs the benchmark (``python3 perfbench/run.py``) unchanged, per
workload that BENCHMARK.json declares, each run for its ``run_seconds``
and with input seed ``SEED``: once on the tree with ``--trace 1`` for the
per-layer metrics, and in ``PAIRS`` pairs with ``--trace 0`` for
the end-to-end ones (run time, throughput, peak RSS, set-up time), which
a traced run does not report: each pair runs the tree and the commit it
was checked out at (``HEAD``). Run it with the whole change uncommitted,
so that ``HEAD`` is the commit the change starts from: once part of a
change is committed, ``HEAD`` holds that part, and the record compares
the tree with it rather than with the change's parent. Both sides run
from copies in temporary directories of their own, so that their paths
have equal length: the tree's files that git tracks or leaves
unignored, and ``HEAD`` extracted with ``git archive``; neither holds
``.git``. The path length shows in the heap layout of each run, and so
in its peak RSS: pair n runs both copies under a name of n letters, so
that the pairs sample several path lengths and a change in peak RSS
that only comes from the layout shows as spread. Pair after pair,
across the workloads, the side that goes first alternates, so that the
pairs tell a change in the code from a drift in the host's speed; the
median of several pairs keeps one slow run of either side from setting
its number.

The output holds, per workload, the traced run's final JSON line
(per-layer metrics, operations attempted and failed), its ``env:`` line
and its other summary lines. Under ``end_to_end`` it holds, per
end-to-end metric, the median over the tree's untraced runs, under
``end_to_end.parent`` the same for ``HEAD``, and under
``end_to_end.runs`` every pair: which side ran ``first``, the length of
both sides' paths, and each side's run (final line, ``env:`` line and
summary). It also holds the git revision of ``HEAD``, the paths that
differed from it, and ``src_lines``, the line count of the package
source as ``wc -l src/lettercorr/*.py`` gives it, with
``src_lines_parent``, the same count for ``HEAD``. A benchmark run that exits non-zero or prints
no final line is an error, and no file is written.

After writing the file it prints, per workload and end-to-end metric,
the parent's median, the tree's, the relative change and the metric's
bound from BENCHMARK.json, flagging a change worse than its bound, and
per workload each side's lowest and highest peak RSS over the pairs.
``setup_s`` is labelled as input generation: it times the benchmark's
own input set-up, which runs no package code.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one input seed for every point, so that points compare like for like
SEED = 0
# untraced pairs of tree and HEAD per workload; the shared host's speed
# drifts enough that one pair can put identical code past a bound
PAIRS = 3


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def extract_head(dest: Path) -> None:
    """Write the files of ``HEAD`` into ``dest``, leaving ``.git`` untouched."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_tree(dest: Path) -> None:
    """Copy into ``dest`` the files of the working tree that git tracks or
    leaves unignored, as they are now; ``.git`` is left out."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def rename(path: Path, letters: int) -> Path:
    """``path`` renamed to a name of ``letters`` letters."""
    return path.rename(path.with_name("c" * letters))


def src_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "lettercorr").glob("*.py"))


def run_benchmark(
    root: Path, command: list[str], name: str, seconds: float, trace: int
) -> dict[str, object]:
    argv = [
        *command, "--workload", name, "--seed", str(SEED), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}")
    env = next(json.loads(ln[len("env: "):]) for ln in lines if ln.startswith("env: "))
    return {"env": env, "summary": lines[:-1], **json.loads(lines[-1])}


def medians(runs: list[dict[str, object]]) -> dict[str, object]:
    """Per end-to-end metric, the median of its value over the runs."""
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": m["unit"], "value": statistics.median(values)}
    return {"metrics": metrics}


def report(spec: dict[str, object], workloads: dict[str, object]) -> None:
    """One line per workload and end-to-end metric: parent and tree medians,
    the relative change and its bound, flagged when worse than the bound."""
    for name, w in workloads.items():
        tree, parent = w["end_to_end"]["metrics"], w["end_to_end"]["parent"]["metrics"]
        for m in spec["end_to_end"]:
            before, after = parent[m["name"]]["value"], tree[m["name"]]["value"]
            change = (after - before) / before
            worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            label = m["name"] + (" (input generation)" if m["name"] == "setup_s" else "")
            flag = "  WORSE THAN BOUND" if worse else ""
            print(
                f"{name} {label}: parent {before:.4g} tree {after:.4g} {m['unit']}"
                f" ({change:+.1%}, bound {m['bound']:.0%}){flag}"
            )
        runs = w["end_to_end"]["runs"]
        spread = {
            side: [r[side]["metrics"]["peak_rss_mib"]["value"] for r in runs]
            for side in ("parent", "tree")
        }
        print(
            f"{name} peak_rss_mib over {len(runs)} path lengths:"
            + "".join(f" {side} {min(v):.4g}-{max(v):.4g}" for side, v in spread.items())
            + " MiB"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", type=Path, help="file to write, e.g. BENCH_6.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    output = args.output.resolve()
    changed = [
        ln[3:] for ln in git("status", "--porcelain", "--untracked-files=all").splitlines()
        if (ROOT / ln[3:]).resolve() != output
    ]
    workloads = {}
    with tempfile.TemporaryDirectory() as tree, tempfile.TemporaryDirectory() as parent:
        # equal-length temporary directories, each holding one copy
        sides = {"tree": Path(tree) / "c", "parent": Path(parent) / "c"}
        for path in sides.values():
            path.mkdir()
        copy_tree(sides["tree"])
        extract_head(sides["parent"])
        lines = {side: src_lines(path) for side, path in sides.items()}
        for i, w in enumerate(spec["workloads"]):
            name = w["name"]
            traced = run_benchmark(sides["tree"], command, name, seconds, 1)
            pairs = []
            for turn in range(i * PAIRS, (i + 1) * PAIRS):
                sides = {side: rename(path, turn + 1) for side, path in sides.items()}
                order = ["tree", "parent"] if turn % 2 == 0 else ["parent", "tree"]
                pairs.append({"first": order[0], "path_length": len(str(sides["tree"])), **{
                    side: run_benchmark(sides[side], command, name, seconds, 0) for side in order
                }})
            workloads[name] = {
                **traced,
                "end_to_end": {
                    **medians([p["tree"] for p in pairs]),
                    "parent": medians([p["parent"] for p in pairs]),
                    "runs": pairs,
                },
            }
    record = {
        "revision": git("rev-parse", "HEAD").strip(),
        "changed_paths": changed,
        "src_lines": lines["tree"],
        "src_lines_parent": lines["parent"],
        "command": command,
        "seed": SEED,
        "run_seconds": seconds,
        "workloads": workloads,
    }
    output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(spec, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
