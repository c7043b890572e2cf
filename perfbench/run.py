"""The repository benchmark: time indequiv's CLI on the paper's instances.

    python3 perfbench/run.py --workload verify-paper --seed 1 --seconds 40 --trace 0

Run from any directory; the checkout is the parent of this file's
directory, and the program is imported from its ``src/``.  Each repetition
runs the workload's commands in a fresh interpreter (perfbench/child.py)
with GRAPHEQ_CACHE unset, so process-level caches are paid every time, as
a CLI user pays them.  Children run with -S: the program is stdlib-only,
and site-packages hooks of the host would otherwise count as set-up.
Repetitions continue while the next one is expected to end within
--seconds, so a slower machine or commit gets fewer of them and a run stays
near --seconds long.  The first repetition always runs to its end, up to
HARD_LIMIT_S after the start; a later one that overruns to twice --seconds
is cut and dropped, since a slow answer is not a failed one.  The inputs
are fixed; --seed is recorded and changes nothing.

--trace 0 reports the end-to-end metrics (medians over repetitions):
  wall_s       time to the answer for the workload's commands
  setup_s      interpreter start until indequiv.cli is imported, median of
               SETUP_PROBES extra start-ups plus every repetition's own
  peak_rss_mb  peak resident memory of a repetition
  ok_frac      operations that passed their check / operations attempted

--trace 1 runs traced repetitions only and reports the per-layer metrics of
tracer.PER_LAYER_UNITS (times: medians; counts: exact, and checked to
repeat).  The traced repetitions' spans go to .bench_build/trace/.

The second-to-last stdout line is a JSON ``detail`` record (machine, every
sample, problems); the last is the result.  Exit code 2, with no result,
when the checkout holds no program; exit code 1, with no result, when no
repetition finished, so that no metric is reported without a sample.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # a run must exit within 180 s, build and probes included


def git_sha(root: Path) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' if the
    checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "arch": platform.machine(),
        "git_sha": git_sha(ROOT),
    }


def child_env() -> dict:
    """No GRAPHEQ_CACHE, and no PYTHONPYCACHEPREFIX: under a prefix the
    interpreter looks for the standard library's byte code there too, and
    where writing byte code is off every child would compile it again."""
    drop = {"GRAPHEQ_CACHE", "PYTHONPYCACHEPREFIX"}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def build(env: dict) -> None:
    """Byte-compile the program into its __pycache__ directories once, so
    no repetition pays compilation."""
    subprocess.run(
        [sys.executable, "-S", "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )


class NoResult(Exception):
    """A run that has no sample to report a metric from."""


class Runner:
    def __init__(self, workload: str, env: dict, hard_deadline: float):
        self.workload = workload
        self.env = env
        self.hard_deadline = hard_deadline
        self.operations = sum(op.operations for op in workloads.WORKLOADS[workload])

    def spawn(self, *args: str, deadline: float) -> dict | None:
        """One child's result, or None if it was killed at `deadline`; a
        crash comes back as all operations failed."""
        cmd = [sys.executable, "-S", str(HERE / "child.py"), *args]
        start = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None:
            return {"crashed": True, "attempted": self.operations,
                    "failed": self.operations,
                    "problems": [f"{' '.join(args)}: exit {proc.returncode}: {err[-2000:]}"]}
        result["setup_s"] = result.pop("setup_done") - start
        return result

    def rep(self, trace: bool, deadline: float) -> dict | None:
        return self.spawn("--workload", self.workload, *(["--trace"] if trace else []),
                          deadline=deadline)


def _median(values: list[float], name: str) -> float:
    if not values:
        raise NoResult(f"no sample of {name}")
    return statistics.median(values)


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list, list, int]:
    """Set-up probes (untraced runs only) and repetitions, traced or not,
    while the next is expected to end within `seconds`.  The first
    repetition may run until the hard deadline; a later one is cut at twice
    `seconds`, and is then dropped, as slow rather than failed.  Returns
    (probes, repetitions, repetitions cut)."""
    probes = [] if trace else [
        runner.spawn("--probe", deadline=runner.hard_deadline) for _ in range(SETUP_PROBES)
    ]
    reps: list[dict] = []
    started = time.monotonic()
    cut_at = min(runner.hard_deadline, started + 2 * seconds)
    while True:
        rep_start = time.monotonic()
        result = runner.rep(trace, runner.hard_deadline if not reps else cut_at)
        if result is None:
            if not reps:
                raise NoResult(
                    f"the first repetition did not end within {HARD_LIMIT_S:.0f} s of the start"
                )
            return [p for p in probes if p is not None], reps, 1
        reps.append(result)
        now = time.monotonic()
        last = now - rep_start
        if result.get("crashed") or now - started + last > seconds:
            return [p for p in probes if p is not None], reps, 0


def layer_metrics(traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer values over the traced reps, and whether counts repeated."""
    if not traced:
        raise NoResult("no traced repetition finished")
    values = {}
    repeat = True
    for name, unit in tracer.PER_LAYER_UNITS.items():
        samples = [r["layers"][name] for r in traced]
        if unit == "count":
            repeat = repeat and len(set(samples)) == 1
            values[name] = samples[0]
        else:
            values[name] = statistics.median(samples)
    return values, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "indequiv" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'indequiv'}", file=sys.stderr)
        return 2
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    env = child_env()
    build(env)
    runner = Runner(args.workload, env, hard_deadline)
    try:
        probes, reps, cut = measure(runner, args.seconds, bool(args.trace))
        return report(args, probes, reps, cut)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def report(args, probes: list[dict], reps: list[dict], cut: int) -> int:
    """Print the detail record and the result line."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    finished = [r for r in reps if not r.get("crashed")]
    setups = [r["setup_s"] for r in probes + finished if not r.get("crashed")]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "wall_s": [r["wall_s"] for r in finished],
        "op_s": [r["op_s"] for r in finished],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in finished],
        "cut": cut,
        "problems": [p for r in probes + reps for p in r.get("problems", [])][:20],
    }
    if args.trace:
        units = tracer.PER_LAYER_UNITS
        values, repeat = layer_metrics(finished)
        detail["counts_repeat"] = repeat
        detail["absent"] = sorted({a for r in finished for a in r["absent"]})
        trace_dir = BUILD / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"layers": [r["layers"] for r in finished], "spans": [r["spans"] for r in finished]}
        ))
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
        values = {
            "wall_s": _median(detail["wall_s"], "wall_s"),
            "setup_s": _median(setups, "setup_s"),
            "peak_rss_mb": _median(detail["peak_rss_mb"], "peak_rss_mb"),
            "ok_frac": (attempted - failed) / attempted,
        }
    detail["samples"] = {"reps": len(finished), "setups": len(setups)}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and (not args.trace or detail["counts_repeat"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
