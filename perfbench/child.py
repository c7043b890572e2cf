"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME [--trace]
    python3 perfbench/child.py --probe

The first statement imports the CLI, so the monotonic time printed as
``setup_done`` marks the end of set-up; the parent subtracts the time it
started this process.  The workload's commands then run through
``indequiv.cli.main`` and are timed; with --trace, under a Tracer, whose
wrapper cost is calibrated afterwards.  The checks run after the timed
region, untraced.  The last stdout line is one JSON object.
"""
import time

import indequiv.cli as cli

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402  (imported after the set-up mark on purpose)
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_workload(ops, trace: bool) -> dict:
    """Time ops through the CLI entry point, then check their outputs."""
    tr = tracer.Tracer() if trace else None
    outputs = []
    with tr or contextlib.nullcontext():
        for op in ops:
            start = time.perf_counter()
            try:
                code, out = workloads.run_cli(cli.main, op.argv)
            except Exception:  # a crash is a failed operation, not a lost run
                code, out = -1, traceback.format_exc(limit=3)
            outputs.append((code, out, time.perf_counter() - start))
    wall = sum(seconds for _, _, seconds in outputs)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = failed = 0
    problems: list[str] = []
    for op, (code, out, _) in zip(ops, outputs):
        try:
            a, f, p = op.check(code, out)
        except Exception:  # a crashing check is a failed operation
            a = f = op.operations
            p = [traceback.format_exc(limit=3)]
        attempted += a
        failed += f
        problems += p + ([out] if code == -1 else [])
    result = {
        "wall_s": wall,
        "op_s": [seconds for _, _, seconds in outputs],
        "peak_rss_mb": peak_kb / 1024,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if tr is not None:
        result["layers"] = tr.metrics(wall)
        result["layers"]["trace.overhead_s"] = tr.overhead_s(tracer.wrapper_cost())
        result["absent"] = tr.absent
        result["spans"] = tr.spans
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    result = {"setup_done": SETUP_DONE}
    if not args.probe:
        result.update(run_workload(workloads.WORKLOADS[args.workload], args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
