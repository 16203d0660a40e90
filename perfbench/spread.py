#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, the way its bounds are judged.

    python3 perfbench/spread.py --workload heavy --seeds 1-10 [--seconds S]
        [--trace 0|1] [--values]

Runs perfbench/run.py once per seed and prints, for every metric, the median
over the runs and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json and a third of it. Also prints each
run's simulated-statistics fingerprint: a given seed must always give the
same one. Exits 1 when a run fails or reports failed checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    ok = True
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d: run failed (exit %d)" % (seed, done.returncode))
            ok = False
            continue
        result = json.loads(lines[-1])
        record = next((json.loads(l[len("run_record "):]) for l in lines
                       if l.startswith("run_record ")), {})
        print("seed %3d: correct=%s attempted=%d failed=%d fingerprint=%s" %
              (seed, result["correct"], result["attempted"], result["failed"],
               record.get("fingerprint", "?")))
        ok = ok and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-44s %14s %8s %8s %8s" % ("metric", "median", "iqr/med", "bound",
                                      "bound/3"))
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        print("%-44s %14.6g %8.4f %8s %8s" % (
            name, med, spread, "-" if bound is None else bound,
            "-" if bound is None else "%.4f" % (bound / 3)))
        if args.values:
            print("    " + " ".join("%.4g" % v for v in vals))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
