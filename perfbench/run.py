"""Benchmark of the lettercorr pipeline, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates every input (see ``corpus.py``); the package sees only
the generated files. Each run of the workload's command sequence
(``workloads.py``) happens in a fresh interpreter (``child.py``) that
imports ``lettercorr`` from the checkout's ``src/`` and calls
``lettercorr.cli.main`` once per subcommand. Runs repeat, one at a time,
for about S seconds. Every output is checked by its oracle on the first
run and must be byte-identical on every later run; an operation fails on
a non-zero exit, an exception or a failed check.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json: the median wall time of one sequence run (``run_s``), raw
input MB per second of it, the child's peak RSS above its own peak right
after importing ``lettercorr``, and the median of several set-ups. With
``--trace 1`` untraced and traced runs alternate; the traced ones give the
per-layer metrics (see ``spans.py``), the pair gives
``trace.overhead_ratio``. Earlier lines describe the environment and the
spread of the runs.

The shared machine this was tuned on runs the same code up to a third
faster or slower for minutes at a time, in CPU time as much as in wall
time. Medians over a run absorb run-to-run noise, not those phases, which
is why the time bounds in BENCHMARK.json are wide.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, OracleError, Prepared

HERE = Path(__file__).resolve().parent
SETUPS = 5
CHILD_TIMEOUT_S = 120
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# a fixed string-hash seed, so that dictionary layouts repeat from run to run
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
# per-layer metrics that count work; they must repeat exactly for one seed
EXACT = (
    ".calls", ".window_sums", ".bytes_computed", ".tokens", ".useful_ratio", ".pairs",
    ".boundaries", ".blocks", "cli.output_bytes",
)


def environment() -> dict[str, object]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def setup(name: str, work: Path, seed: int) -> tuple[Prepared, list[float]]:
    """Generate the inputs SETUPS times; every set-up must write the same."""
    times, prints = [], set()
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        work.mkdir(parents=True)
        prepared = WORKLOADS[name](work, seed)
        times.append(time.perf_counter() - start)
        prints.add(prepared.fingerprint)
    if len(prints) != 1:
        raise SystemExit("input generation is not deterministic for one seed")
    return prepared, times


class Runner:
    """Runs the sequence in child processes and checks every output."""

    def __init__(self, root: Path, prepared: Prepared) -> None:
        self.root = root
        self.prepared = prepared
        self.reference: list[str | None] = [None] * len(prepared.ops)
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {why}", file=sys.stderr)

    def run(self, trace: bool) -> tuple[float, dict | None]:
        ops = self.prepared.ops
        spec = {"src": str(self.root / "src"), "ops": [op.argv for op in ops], "trace": trace}
        self.attempted += len(ops)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")],
                input=json.dumps(spec), capture_output=True, text=True,
                cwd=self.root, timeout=CHILD_TIMEOUT_S, env=CHILD_ENV,
            )
        except subprocess.TimeoutExpired:
            wall = time.perf_counter() - start
            for op in ops:
                self.fail(op.argv[0], f"sequence exceeded {CHILD_TIMEOUT_S} s")
            return wall, None
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            for op in ops:
                self.fail(op.argv[0], f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
            return wall, None
        result = json.loads(proc.stdout)
        for i, (op, res) in enumerate(zip(ops, result["ops"])):
            label = " ".join(op.argv[:3])
            if res["error"] or res["rc"] != 0:
                self.fail(label, res["error"] or f"exit {res['rc']}: {proc.stderr[-2000:]}")
                continue
            digest = hashlib.sha256(op.output.read_bytes()).hexdigest()
            if self.reference[i] is None:
                try:
                    op.check(op.output)
                except (OracleError, OSError, ValueError, KeyError, IndexError) as exc:
                    self.fail(label, f"oracle: {exc!r}")
                    continue
                self.reference[i] = digest
            elif digest != self.reference[i]:
                self.fail(label, "output differs from the first run")
        result["output_bytes"] = sum(op.output.stat().st_size for op in ops if op.output.exists())
        return wall, result


def measure(runner: Runner, seconds: float, trace: bool) -> dict[bool, list]:
    """Run until the next run would pass the deadline; with tracing,
    alternate untraced and traced runs and make at least one of each."""
    runs: dict[bool, list] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    while True:
        traced = trace and len(runs[False]) > len(runs[True])
        wall, result = runner.run(traced)
        walls.append(wall)
        if result is not None:
            runs[traced].append((wall, result))
        enough = not trace or (runs[False] and runs[True])
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            return runs
        if not enough and len(walls) >= 6:  # every run keeps failing
            return runs


def tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten runs beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} s, n={n}"
    if n < 11:
        return text + ", no percentile has 10 runs beyond it"
    ordered = sorted(values)
    return text + f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} s"


def layer_values(layers: dict[str, float], result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    out = dict(layers)
    for key, value in layers.items():
        if key.startswith("cli.") and key.endswith(".total_s"):
            out[key[: -len(".total_s")] + ".s"] = value
    out["cli.self_s"] = sum(
        v for k, v in layers.items() if k.startswith("cli.") and k.endswith(".s")
    )
    calls = layers.get("textnorm.tokenize.calls", 0)
    out["textnorm.tokenize.useful_ratio"] = (
        layers.get("textnorm.tokenize.distinct", 0) / calls if calls else 0.0
    )
    boundaries = layers.get("divergence.jsd_profile.boundaries", 0)
    out["divergence.jsd_profile.us_per_boundary"] = (
        layers.get("divergence.jsd_profile.s", 0.0) * 1e6 / boundaries if boundaries else 0.0
    )
    stream_s = layers.get("textnorm.normalize_stream.s", 0.0)
    out["textnorm.normalize_stream.mb_per_s"] = (
        layers.get("textnorm.normalize_stream.bytes_in", 0) / 1e6 / stream_s if stream_s else 0.0
    )
    out["cli.output_bytes"] = result["output_bytes"]
    out["process.cpu_s"] = result["cpu_s"]
    return out


def main() -> int:
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = Path.cwd()
    if not (root / "src" / "lettercorr" / "cli.py").is_file():
        print(f"error: no src/lettercorr under {root}; run from a lettercorr checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))

    # relative, so the replay lines in the outputs do not name the checkout
    work = Path(".perfbench-work") / args.workload
    prepared, setup_times = setup(args.workload, work, args.seed)
    runner = Runner(root, prepared)
    runs = measure(runner, args.seconds, bool(args.trace))

    plain = [wall for wall, _ in runs[False]]
    print(f"workload {args.workload}: seed {args.seed}, input {prepared.input_bytes} bytes, "
          f"{len(prepared.ops)} operations per run")
    print(f"setup_s: {', '.join(f'{t:.4f}' for t in setup_times)}")
    if plain:
        print(f"wall of a run, untraced: {tail(plain)}")
    for i, op in enumerate(prepared.ops):
        times = [res["ops"][i]["s"] for _, res in runs[False] + runs[True]]
        if times:
            print(f"  op {i}: {' '.join(op.argv[:3])}: median {statistics.median(times):.4f} s")

    metrics: dict[str, dict[str, object]] = {}
    if not args.trace and plain:
        run_s = statistics.median(plain)
        peak = statistics.median(
            (res["peak_kib"] - res["baseline_kib"]) / 1024 for _, res in runs[False]
        )
        base = statistics.median(res["baseline_kib"] / 1024 for _, res in runs[False])
        print(f"peak RSS {peak:.1f} MiB above an import baseline of {base:.1f} MiB")
        values = {
            "run_s": run_s,
            "throughput_mb_s": prepared.input_bytes / 1e6 / run_s,
            "peak_rss_mib": peak,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    elif args.trace and plain and runs[True]:
        per_run = [layer_values(res["layers"], res) for _, res in runs[True]]
        traced = [wall for wall, _ in runs[True]]
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_ratio":
                value = statistics.median(traced) / statistics.median(plain)
            else:
                seen = [run.get(name, 0) for run in per_run]
                if name.endswith(EXACT) and len(set(seen)) != 1:
                    runner.fail(name, f"counter differs between traced runs: {seen}")
                value = statistics.median(seen)
            metrics[name] = {"value": value, "unit": m["unit"]}
        print(f"wall of a run, traced: {tail(traced)}")

    print(f"failed_ratio: {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
