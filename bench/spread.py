#!/usr/bin/env python3
"""Run every workload once per seed and print each end-to-end metric's spread.

The spread is the distance between the first and third quartile of the
runs' values (statistics.quantiles, n=4) as a share of their median: the
number the bounds in BENCHMARK.json are calibrated against (README.md,
"How the bounds were calibrated"). Run from the root of the checkout:

    python3 bench/spread.py [first_seed [runs [workload,...]]] > bench/out/spread.txt
"""
import json
import statistics
import subprocess
import sys
import time

first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
only = sys.argv[3].split(",") if len(sys.argv) > 3 else None
contract = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

for w in contract["workloads"]:
    if only and w["name"] not in only:
        continue
    values = {name: [] for name in bounds}
    wall = []
    for seed in range(first, first + runs):
        cmd = contract["command"] + ["--workload", w["name"], "--seed", str(seed),
                                     "--seconds", str(contract["run_seconds"]), "--trace", "0"]
        t0 = time.time()
        run = subprocess.run(cmd, capture_output=True, text=True)
        wall.append(time.time() - t0)
        if run.returncode != 0:
            sys.exit(f'{" ".join(cmd)} exited with {run.returncode}:\n{run.stderr}')
        res = json.loads(run.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
    print(f'{w["name"]}: seeds {first}..{first + runs - 1}, wall {statistics.median(wall):.1f} s median, {max(wall):.1f} s max')
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= bounds[name] / 3 else "  > bound/3"
        print(f'  {name:16s} median {med:12.6g}  spread {100 * spread:6.2f}%  bound {100 * bounds[name]:3.0f}%{flag}')
        print(f'  {"":16s} values {" ".join(f"{x:.6g}" for x in xs)}')
    sys.stdout.flush()
