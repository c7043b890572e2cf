"""Repeat the benchmark over seeds and summarise it: the spread of every
end-to-end metric against its bound, traced counts checked to repeat
exactly, and optionally a BENCH_<label>.json record of the commit.

    python3 perfbench/trajectory.py --out perfbench/baselines/BENCH_<sha>.json

Each workload gets RUNS untraced runs and TRACED traced runs, seeds 1, 2, ...

Spread is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(values, n=4).  Settings come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACED = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "samples": len(values),
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"label": None, "claim": None, "run_seconds": seconds,
              "machine": None, "workloads": {}}
    ok = True
    for workload in names:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        record["machine"] = runs[0][0]["machine"]
        correct = all(result["correct"] for _, result in runs)
        end_to_end = {}
        for name, bound in bounds.items():
            s = summarise([result["metrics"][name]["value"] for _, result in runs])
            s["bound"] = bound
            s["reps_per_run"] = [d["samples"]["setups" if name == "setup_s" else "reps"]
                                 for d, _ in runs]
            end_to_end[name] = s
            within = name == "setup_s" or s["spread"] < bound
            ok = ok and within and correct
            verdict = ("steady" if s["spread"] < bound / 3
                       else "within bound" if within else "TOO WIDE")
            print(f"{workload:13s} {name:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} bound {bound} {verdict}", flush=True)
        traced = [run_once(workload, seed, seconds, 1) for seed in range(1, TRACED + 1)]
        first = traced[0][1]["metrics"]
        repeat = all(
            result["metrics"][k]["value"] == first[k]["value"]
            for _, result in traced for k in first if first[k]["unit"] == "count"
        )
        correct = correct and all(result["correct"] for _, result in traced)
        ok = ok and repeat and correct
        per_layer = {
            k: {
                "value": first[k]["value"] if first[k]["unit"] == "count"
                else statistics.median(r["metrics"][k]["value"] for _, r in traced),
                "unit": first[k]["unit"],
                "samples": len(traced),
            }
            for k in first
        }
        print(f"{workload:13s} correct {correct}, traced counts repeat {repeat}",
              flush=True)
        record["workloads"][workload] = {
            "correct": correct,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "counts_repeat": repeat,
            "traced_reps_per_run": [d["samples"]["reps"] for d, _ in traced],
        }
    record["label"] = (record["machine"] or {}).get("git_sha", "unknown")[:7]
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
