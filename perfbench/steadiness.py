#!/usr/bin/env python3
"""Steadiness report: run workloads over several seeds and compare the
run-to-run spread of every end-to-end metric with its bound.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--seconds S] [--bin PATH]

Run from the repository root.  Each run is the command in BENCHMARK.json
(or `--bin`, a prebuilt perfbench binary) with `--workload W --seed N
--seconds S --trace 0`.  The spread of a metric is the distance between the
first and third quartiles of its values (`statistics.quantiles(n=4)`) as a
share of their median.  A metric is steady when its spread is below a third
of its bound; `setup_s` is reported but exempt, as its bound limits drift of
the median instead.  Each run's stamp (steal seconds, pool workers, kernel
ISA) is printed so a run hit by steal can be told apart.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["stamp"], json.loads(lines[-1]), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--bin")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [opts.bin] if opts.bin else bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(opts.seeds)

    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        print(f"== {workload}: seeds {seeds[0]}..{seeds[-1]}, --seconds {seconds}")
        for seed in seeds:
            stamp, result, wall = run_once(command, workload, seed, seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  seed {seed:>4}: wall {wall:6.1f} s, steal {stamp['steal_s']:5.2f} s, "
                  f"workers {stamp['pool_workers']}, isa {stamp['kernel_isa']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  + ", ".join(f"{n} {values[n][-1]:.4g}" for n in bounds),
                  flush=True)
        for name, bound in bounds.items():
            vals = values[name]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            exempt = name == "setup_s"
            ok = exempt or spread < bound / 3
            steady &= ok
            verdict = "exempt" if exempt else ("steady" if ok else "NOT STEADY")
            print(f"  {name:>14}: median {med:10.4f}  spread {spread:6.3f}  "
                  f"bound {bound:.2f} (a third: {bound / 3:.3f})  {verdict}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
