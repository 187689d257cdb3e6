#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how much each
end-to-end metric spreads, to size the bounds in BENCHMARK.json.

    python3 paperbench/calibrate.py [--seeds 1-10] [--workloads a,b] [--out FILE]

Each workload runs once per seed with the run length BENCHMARK.json sets.
For each metric it prints the median, the quartiles, the spread (the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them) and the bound, flagging a
spread of a third of the bound or more. --out writes the same numbers as
JSON, the form paperbench/baseline.json keeps. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    options = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (options.workloads.split(",") if options.workloads
                 else [w["name"] for w in bench["workloads"]])
    summary = {}
    for workload in workloads:
        values = {}
        for seed in seeds(options.seeds):
            for name, value in run(bench["command"], workload, seed,
                                   bench["run_seconds"]).items():
                values.setdefault(name, []).append(value)
        summary[workload] = {}
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            bound = bounds[name]
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:<12} {name:<15} median {q2:<14.6g} "
                  f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:.4f} "
                  f"bound {bound}{flag}", flush=True)
            summary[workload][name] = {"median": q2, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vs}
    if options.out:
        with open(options.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
