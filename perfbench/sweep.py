"""Repeat the benchmark over seeds and summarise the spread of every metric.

Usage (from the repository root):

    python3 perfbench/sweep.py [--out perfbench/baseline.json]

For each workload this makes RUNS untraced runs of run.py, seeds 1..RUNS,
and reports each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them), then TRACED traced runs,
seeds 1001.., and their per-layer medians.  It checks that the count metrics
repeat exactly between traced runs.  The run context of every run is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

RUNS = 10
TRACED = 2
TRACED_FIRST_SEED = 1001


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run run.py once; returns (run context, result line)."""
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[0])["context"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": seconds, "workloads": {}}
    for workload in sorted(run.WORKLOADS):
        contexts, results = [], []
        for seed in range(1, RUNS + 1):
            t0 = time.perf_counter()
            context, result = one_run(workload, seed, seconds, 0)
            contexts.append({**context, "run_s": time.perf_counter() - t0})
            results.append(result)
        entry: dict = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "contexts": contexts,
        }
        print(f"{workload}: {RUNS} runs, {entry['attempted']} requests, {entry['failed']} failed")
        for name in bounds:
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            print(f"  {name:14s} median {stats['median']:.6g} {stats['unit']:5s} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]})")

        traced = [one_run(workload, TRACED_FIRST_SEED + i, seconds, 1) for i in range(TRACED)]
        layers = {}
        for name, metric in traced[0][1]["metrics"].items():
            values = [t[1]["metrics"][name]["value"] for t in traced]
            layers[name] = {"value": statistics.median(values), "unit": metric["unit"], "values": values}
            if metric["unit"] == "count" and len(set(values)) != 1:
                print(f"  count {name} does not repeat: {values}")
            print(f"  {name:42s} {layers[name]['value']:.6g} {metric['unit']}")
        entry["per_layer"] = layers
        entry["traced_contexts"] = [t[0] for t in traced]
        entry["traced_failed"] = sum(t[1]["failed"] for t in traced)
        summary["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
