"""Run one workload's command sequence in a fresh interpreter.

Reads a JSON spec on stdin: ``src`` (directory holding the package under
test), ``ops`` (argument lists for ``lettercorr.cli.main``) and ``trace``.
Writes one JSON object on stdout: per-operation exit code, error and
seconds, the resident-memory high-water mark right after the imports
(``baseline_kib``) and at the end (``peak_kib``), CPU seconds, and with
tracing the per-layer summary of :mod:`spans`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def high_water_kib() -> int:
    """Peak resident memory of this process so far.

    Read from VmHWM, which starts afresh at exec; ``ru_maxrss`` instead
    carries over the resident size of the spawning parent.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("VmHWM missing from /proc/self/status")


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import lettercorr.cli as cli

    expected = os.path.join(spec["src"], "lettercorr")
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.abspath(expected):
        print(f"imported lettercorr from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        for name in spans.install(recorder):
            print(f"trace: {name} not found, not traced", file=sys.stderr)

    baseline_kib = high_water_kib()
    ops = []
    for argv in spec["ops"]:
        start = time.perf_counter()
        rc, error = None, None
        try:
            if recorder is None:
                rc = cli.main(argv)
            else:
                with recorder.span("cli." + argv[0]):
                    rc = cli.main(argv)
        except (Exception, SystemExit):  # reported as a failed operation
            error = traceback.format_exc(limit=3)
        ops.append({"rc": rc, "error": error, "s": time.perf_counter() - start})

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ops": ops,
        "baseline_kib": baseline_kib,
        "peak_kib": high_water_kib(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if recorder is not None:
        result["layers"] = spans.summarize(recorder)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
