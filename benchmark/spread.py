#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the driver measures it.

    spread.py [--seeds 10] [--first-seed 0] [--seconds 12] [--workload W]...

Runs run.sh once per seed and workload, then prints for every end-to-end
metric the median and the distance between the first and third quartile
of the values (statistics.quantiles, n=4) as a share of their median,
beside the bound BENCHMARK.json allows. README.md records two such sets.
"""
import argparse
import json
import pathlib
import statistics
import subprocess

here = pathlib.Path(__file__).resolve().parent
spec = json.loads((here.parent / "BENCHMARK.json").read_text())

parser = argparse.ArgumentParser()
parser.add_argument("--seeds", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=0)
parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
parser.add_argument("--workload", action="append")
args = parser.parse_args()

for workload in args.workload or [w["name"] for w in spec["workloads"]]:
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [here / "run.sh", "--workload", workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, (workload, seed, result)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        print(f"{workload:<14} {m['name']:<13} median {median:>14.4f} {m['unit']:<9}"
              f" spread {100 * (q3 - q1) / median:5.2f} %  (bound {100 * m['bound']:.0f} %)"
              f"  min {min(v):.4f} max {max(v):.4f}", flush=True)
