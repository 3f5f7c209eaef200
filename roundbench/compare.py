#!/usr/bin/env python3
"""Compares two result sets of the round benchmark (see sweep.py).

    python3 roundbench/compare.py PARENT_SET CHANGE_SET

Runs are paired by workload and seed. For every workload and end-to-end
metric it prints one verdict:

  improved       the change wins at least 9 of 10 pairs (ties count for
                 neither) and the medians differ by more than the parent's
                 own spread (q3 - q1); or, where a spread is wider than the
                 bound, every change run beats every parent run
  no worse       the change's median is not worse than the parent's by more
                 than the metric's bound
  worse          the change's median is worse by more than the bound
  unresolved     a set's spread ((q3 - q1) / median) is wider than the bound,
                 so neither "no worse" nor "worse" can be told apart

setup_s is judged on its medians only: set-up is measured a few times per
run and its spread is not bounded. Two sets of the same code agree when no
metric is worse or unresolved; the exit status is 0 exactly then.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402
from sweep import load_set  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(metric, parent, change):
    """Verdict for one metric; `parent` and `change` map seed -> value."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]

    def better(a, b):  # a strictly better than b
        return a > b if higher else a < b

    pm, pq1, pq3 = stats.median_quartiles(parent.values())
    cm, cq1, cq3 = stats.median_quartiles(change.values())
    p_spread = (pq3 - pq1) / abs(pm) if pm else 0.0
    c_spread = (cq3 - cq1) / abs(cm) if cm else 0.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if better(change[s], parent[s]))
    detail = "parent %s [%s, %s]  change %s [%s, %s]  wins %d/%d" % (
        stats.sig(pm), stats.sig(pq1), stats.sig(pq3), stats.sig(cm), stats.sig(cq1),
        stats.sig(cq3), wins, len(seeds))

    if metric["name"] != "setup_s" and max(p_spread, c_spread) > bound:
        if all(better(c, p) for c in change.values() for p in parent.values()):
            return "improved", detail
        return "unresolved", detail
    if seeds and wins >= 0.9 * len(seeds) and abs(cm - pm) > (pq3 - pq1) and better(cm, pm):
        return "improved", detail
    worse_by = (pm - cm if higher else cm - pm) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return "worse", detail
    return "no worse", detail


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    parent_set, change_set = load_set(sys.argv[1]), load_set(sys.argv[2])
    failures = 0
    for w in config["workloads"]:
        name = w["name"]
        p_runs = {s: r for s, r in parent_set.get(name, {}).items() if r}
        c_runs = {s: r for s, r in change_set.get(name, {}).items() if r}
        if not p_runs or not c_runs:
            print("== %s: missing from a set" % name)
            failures += 1
            continue
        print("== %s (%d parent runs, %d change runs)" % (name, len(p_runs), len(c_runs)))
        for m in config["end_to_end"]:
            parent = {s: r["metrics"][m["name"]]["value"] for s, r in p_runs.items()
                      if m["name"] in r["metrics"]}
            change = {s: r["metrics"][m["name"]]["value"] for s, r in c_runs.items()
                      if m["name"] in r["metrics"]}
            if not parent or not change:
                print("  %-22s missing" % m["name"])
                failures += 1
                continue
            v, detail = verdict(m, parent, change)
            failures += v in ("worse", "unresolved")
            print("  %-22s %-11s %s" % (m["name"], v, detail))
    print("agreement: %s" % ("every metric within its bound" if failures == 0 else
                             "%d metric(s) worse, unresolved or missing" % failures))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
