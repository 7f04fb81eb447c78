#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports each metric's
median, interquartile spread and range, as shares of the median.

The spread is the distance between the first and third quartile of
`statistics.quantiles(values, n=4)` over the runs, divided by their median.
Each run uses another seed.

Run from the repository root:

    python3 benchmark/calibrate.py                     # 10 runs x every workload
    python3 benchmark/calibrate.py --runs 5 --workload serve-hot --first-seed 100
    python3 benchmark/calibrate.py --trace 1 --runs 2   # per-layer metrics
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end" if args.trace == 0 else "per_layer"]

    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            for name, v in run_once(spec["command"], workload, args.first_seed + i, seconds, args.trace).items():
                values[name].append(v)
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            line = f"{workload:16} {m['name']:30} median {med:<12.6g}"
            if len(v) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(v, n=4)
                iqr = (q3 - q1) / abs(med)
                line += f" iqr/med {iqr:7.4f} range/med {(max(v) - min(v)) / abs(med):7.4f}"
                if "bound" in m:
                    line += f" bound {m['bound']:.2f} {'ok' if iqr < m['bound'] / 3 else 'WIDE'}"
            print(line, flush=True)
        print(f"{workload:16} raw {json.dumps(values)}", flush=True)


if __name__ == "__main__":
    main()
