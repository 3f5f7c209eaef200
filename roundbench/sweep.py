#!/usr/bin/env python3
"""Runs a result set: run.py once per (workload, seed), one after another.

    python3 roundbench/sweep.py --set DIR [--seeds 1-10] [--workloads a,b] [--report-only]

Each run's stdout is saved as DIR/<workload>.seed<N>.out. At the end, per
workload and end-to-end metric, prints the median of the runs' values and
their spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the bound
from BENCHMARK.json. compare.py takes two such sets.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_set(path):
    """{workload: {seed: result-line dict}} from a set directory."""
    out = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".out"):
            continue
        workload, seed = name[:-4].rsplit(".seed", 1)
        with open(os.path.join(path, name)) as f:
            lines = f.read().strip().splitlines()
        out.setdefault(workload, {})[int(seed)] = json.loads(lines[-1]) if lines else None
    return out


def spread(values):
    med, q1, q3 = stats.median_quartiles(values)
    return med, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--set", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--report-only", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in config["workloads"]]
    os.makedirs(args.set, exist_ok=True)
    if not args.report_only:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                       "--trace", "0"]
                out = os.path.join(args.set, "%s.seed%d.out" % (workload, seed))
                with open(out, "w") as f:
                    code = subprocess.run(cmd, cwd=ROOT, stdout=f).returncode
                print("%s seed %d: exit %d" % (workload, seed, code), flush=True)

    results = load_set(args.set)
    for workload in workloads:
        runs = [r for r in results.get(workload, {}).values() if r is not None]
        bad = [r for r in runs if not r["correct"]]
        print("== %s: %d runs, %d incorrect" % (workload, len(runs), len(bad)))
        for m in config["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs
                      if m["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            med, s = spread(values)
            bound = m["bound"]
            flag = "ok" if s <= bound / 3 else "WITHIN BOUND" if s <= bound else "TOO WIDE"
            print("  %-36s median %12s  spread %8.4f  bound %-6s %s"
                  % (m["name"], stats.sig(med), s, bound, flag))


if __name__ == "__main__":
    main()
