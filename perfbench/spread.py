#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload prepare-sweep --seeds 1-10 [--trace 0]

Runs the command in BENCHMARK.json from the repository root, once per
seed, and prints for every metric the median of the per-run values and
the distance between their first and third quartiles as a share of
that median (statistics.quantiles(values, n=4)).
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed",
                  file=sys.stderr)
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:24s} median {med:.6g}  spread {spread:.4f}  n={len(vs)}")


if __name__ == "__main__":
    main()
