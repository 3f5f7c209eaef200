#!/usr/bin/env python3
"""Records the expected final-model hash per workload, kernel tier and seed.

    python3 roundbench/record_hashes.py --seeds 0-15 [--workloads a,b]

Runs one untimed-length pass of each workload per seed through the driver
and merges the hashes into roundbench/expected_hashes.json, keyed
workload -> gemm kernel tier -> seed. run.py checks every run whose seed and
tier appear there. Re-record only when a change is meant to alter results.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
from sweep import parse_seeds  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-15")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    config = run.load_config()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in config["workloads"]]
    binary = run.build()
    path = os.path.join(run.HERE, "expected_hashes.json")
    expected = run.load_expected_hashes()
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            work = os.path.join(run.target_dir(), "roundbench-work",
                                "record-%s-%d" % (workload, seed))
            try:
                out = subprocess.run(
                    [binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", "0", "--work", work, "--min-passes", "1"],
                    stdout=subprocess.PIPE, text=True, check=True).stdout
            finally:
                shutil.rmtree(work, ignore_errors=True)
            raw = json.loads(out.strip().splitlines()[-1])
            expected.setdefault(workload, {}).setdefault(raw["gemm_kernel"], {})[
                str(seed)] = raw["passes"][0]["hash"]
            print("%s seed %d: %s" % (workload, seed, raw["passes"][0]["hash"]), flush=True)
            with open(path, "w") as f:
                json.dump(expected, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
