#!/usr/bin/env python3
"""Round benchmark: one command per workload run.

    python3 roundbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark driver from source (CMake, into
$CARGO_TARGET_DIR/roundbench, default .bench_build/roundbench), runs the
workload through the real round engine, checks its outputs, prints every
metric with median, quartiles and sample count, and ends with one JSON line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced replay; the replay's Chrome trace-event file
and its self-time summary are kept under $CARGO_TARGET_DIR/roundbench-traces.
Any failed check names itself on stderr and the run exits with status 1.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402  (the benchmark's own module)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once, then builds incrementally; returns the binary."""
    out = os.path.join(target_dir(), "roundbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("roundbench: build failed (%s)" % " ".join(cmd[:2]))
    return os.path.join(out, "roundbench")


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_expected_hashes():
    with open(os.path.join(HERE, "expected_hashes.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=-1,
                    help="timed rounds per pass (default: the workload's own; "
                         "other values skip the recorded-hash check)")
    args = ap.parse_args()

    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        raise SystemExit("roundbench: unknown workload %r (known: %s)"
                         % (args.workload, ", ".join(names)))
    binary = build()

    tail_p = stats.tail_percentile(config["end_to_end"])
    work = os.path.join(target_dir(), "roundbench-work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, "--min-rounds", str(stats.rounds_needed(tail_p))]
    if args.rounds > 0:
        cmd += ["--rounds", str(args.rounds)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
        if proc.returncode != 0:
            raise SystemExit("roundbench: driver exited with status %d" % proc.returncode)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        trace_summary = None
        if args.trace:
            traces = os.path.join(target_dir(), "roundbench-traces")
            os.makedirs(traces, exist_ok=True)
            stem = os.path.join(traces, "%s-seed%d" % (args.workload, args.seed))
            shutil.copyfile(raw["trace_file"], stem + ".trace.json")
            with open(raw["trace_file"]) as f:
                trace_summary = stats.summarize_trace(json.load(f), raw)
            with open(stem + ".summary.json", "w") as f:
                json.dump(trace_summary, f, indent=1, sort_keys=True)
            raw["trace_file"] = stem + ".trace.json"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = None
    if args.rounds <= 0:
        expected = (load_expected_hashes().get(args.workload, {})
                    .get(raw["gemm_kernel"], {}).get(str(args.seed)))
    errors = stats.check_run(raw, expected)
    if expected is None:
        print("note: no recorded hash for %s seed %d on the %s tier; the hash is "
              "checked across this run's passes only"
              % (args.workload, args.seed, raw["gemm_kernel"]))

    wanted = config["per_layer"] if args.trace else config["end_to_end"]
    if args.trace:
        samples = stats.layer_samples(raw, trace_summary)
    else:
        samples = stats.end_to_end_samples(raw, tail_p)
    missing = [m["name"] for m in wanted if m["name"] not in samples]
    if missing:
        errors.append("missing metrics: " + ", ".join(missing))

    print("roundbench %s seed=%d trace=%d nproc=%d threads=%d gemm=%s codec=%s "
          "build=%s passes=%d dinar_layer=%d hash=%s"
          % (raw["workload"], raw["seed"], raw["trace"], raw["nproc"], raw["threads"],
             raw["gemm_kernel"], raw["codec_kernel"], raw["build_type"], len(raw["passes"]),
             raw["passes"][0]["dinar_layer"], raw["passes"][0]["hash"]))
    if args.trace:
        print("trace: %s (self-time summary beside it)" % raw["trace_file"])
        print(stats.format_self_times(trace_summary))
    print("%-34s %12s %12s %12s %6s  %s" % ("metric", "median", "q1", "q3", "n", "unit"))
    metrics = {}
    for m in wanted:
        values = samples.get(m["name"])
        if not values:
            continue
        med, q1, q3 = stats.median_quartiles(values)
        print("%-34s %12s %12s %12s %6d  %s" % (m["name"], stats.sig(med), stats.sig(q1),
                                                stats.sig(q3), len(values), m["unit"]))
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    if not args.trace:
        # Reported beside the metrics, not as one: DINAR's obfuscated global
        # model can sit at chance level (see fl.global_acc in the traced run).
        print("info: global_acc %s" % stats.sig(raw["passes"][0]["global_acc"]))

    for e in errors:
        sys.stderr.write("roundbench check failed: %s\n" % e)
    attempted = sum(len(p["round_ms"]) for p in raw["passes"])
    failed = sum(p["carried_forward"] for p in raw["passes"])
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
