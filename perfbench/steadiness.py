#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and metric this prints the median of the runs and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steadiness.py --workloads paper_flow soc_explore \
        --seeds 1 2 3 4 5 [--trace 0] [--out .bench_out/steadiness.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", default=None, help="also write the raw runs as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            start = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            took = time.time() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} reported incorrect output")
            runs[workload].append({"seed": seed, "seconds": took, "result": result})
            print(f"{workload} seed {seed}: {took:.1f} s", file=sys.stderr)

    for workload, rows in runs.items():
        print(f"\n{workload} ({len(rows)} runs, {max(r['seconds'] for r in rows):.1f} s longest)")
        print(f"  {'metric':<26} {'median':>14} {'iqr/median':>11} {'bound':>6}")
        for name in rows[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:<26} {med:>14.6g} {spread:>11.4f} {bound if bound is not None else '-':>6}{flag}")

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
