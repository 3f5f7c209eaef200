"""Statistics, trace analysis and output checks of the round benchmark.

Pure functions over the driver's raw JSON and its Chrome trace; run.py
prints what they compute and tests/test_stats.py pins their arithmetic.
"""
import math
import re
import statistics

# Per-pass values that are a pure function of (workload, seed, rounds):
# every pass of one run must repeat them exactly.
DETERMINISTIC = ("hash", "up_bytes_per_round", "down_bytes_per_round", "selected",
                 "accepted", "carried_forward", "global_acc", "personal_acc",
                 "mia_local_auc")

# Per-layer metrics summed per round from the trace's spans.
SPAN_PER_ROUND = {
    "fl.client.train_round_ms": "fl.client.train_round",
    "fl.wire.encode_ms": "fl.wire.encode",
    "fl.wire.decode_ms": "fl.wire.decode",
    "fl.transport.ship_ms": "fl.transport.ship",
    "fl.server.validate_ms": "fl.server.validate",
    "fl.server.absorb_ms": "fl.server.absorb",
    "fl.server.finalize_ms": "fl.server.finalize",
    "core.on_download_ms": "core.on_download",
    "core.before_upload_ms": "core.before_upload",
    "store.wal.append_ms": "store.wal.append",
    "net.ship_ms": "net.ship",
}
# Per-layer metrics taken per occurrence (they do not happen every round).
SPAN_PER_OCCURRENCE = {
    "fl.eval_ms": "fl.eval",
    "store.snapshot_ms": "store.snapshot",
}


def sig(x, digits=6):
    """A number at significant-digit precision (never '0.0' for 0.04)."""
    return "%.*g" % (digits, x)


def median_quartiles(values):
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def percentile(values, p):
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def samples_beyond(n, p):
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_percentile(n, beyond=10):
    """The highest whole percentile with at least `beyond` samples above it
    (None when n is too small for any)."""
    best = None
    for p in range(1, 100):
        if samples_beyond(n, p) >= beyond:
            best = p
    return best


def rounds_needed(p, beyond=10):
    """Fewest samples for which the p-th percentile has `beyond` above it."""
    n = beyond + 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def tail_percentile(end_to_end):
    """The tail percentile BENCHMARK.json names as round_ms.pNN (NN > 50)."""
    for m in end_to_end:
        hit = re.fullmatch(r"round_ms\.p(\d+)", m["name"])
        if hit and int(hit.group(1)) > 50:
            return int(hit.group(1))
    raise ValueError("BENCHMARK.json names no round_ms tail percentile")


# -- end-to-end --------------------------------------------------------------

def end_to_end_samples(raw, tail_p):
    """Metric name -> list of samples (per pass, or per round for round_ms)."""
    passes = raw["passes"]
    rounds = [ms for p in passes for ms in p["round_ms"]]
    out = {
        "rounds_per_s": [len(p["round_ms"]) / p["timed_s"] for p in passes],
        "round_ms.p50": rounds,
        "setup_s": [p["setup_s"] for p in passes],
        "recover_s": [p["recover_s"] for p in passes],
        "peak_rss_mb": [raw["peak_rss_mb"]],
        "up_bytes_per_round": [p["up_bytes_per_round"] for p in passes],
        "down_bytes_per_round": [p["down_bytes_per_round"] for p in passes],
        "exchange_ok_ratio": [p["accepted"] / p["selected"] for p in passes],
        "personal_acc": [p["personal_acc"] for p in passes],
        "mia_local_auc": [p["mia_local_auc"] for p in passes],
    }
    if samples_beyond(len(rounds), tail_p) >= 10:
        # One value over the pooled rounds; its quartiles are not defined.
        out["round_ms.p%d" % tail_p] = [percentile(rounds, tail_p)]
    return out


def check_run(raw, expected_hash):
    """Named messages for every violated output check (empty = correct)."""
    errors = []
    passes = raw["passes"]
    first = passes[0]
    for i, p in enumerate(passes):
        if p["recovered_hash"] != p["hash"]:
            errors.append("recovery: pass %d recovered model hash %s, final hash %s"
                          % (i, p["recovered_hash"], p["hash"]))
        for key in DETERMINISTIC:
            if p[key] != first[key]:
                errors.append("determinism: pass %d %s = %r, pass 0 %r"
                              % (i, key, p[key], first[key]))
        if p["net_errors"] != 0:
            errors.append("net.errors: pass %d counted %d socket errors (must be 0)"
                          % (i, p["net_errors"]))
    if expected_hash is not None and first["hash"] != expected_hash:
        errors.append("hash: final-model hash %s, recorded %s for this seed and tier"
                      % (first["hash"], expected_hash))
    if raw["trace"]:
        if raw["replay_hash"] != first["hash"]:
            errors.append("replay: traced replay hash %s, untraced hash %s"
                          % (raw["replay_hash"], first["hash"]))
        if raw["replay_recovered_hash"] != raw["replay_hash"]:
            errors.append("replay recovery: recovered hash %s, replay hash %s"
                          % (raw["replay_recovered_hash"], raw["replay_hash"]))
        if raw["scalars"].get("net.errors", 0) != 0:
            errors.append("net.errors: the traced replay counted %g socket errors"
                          % raw["scalars"]["net.errors"])
    return errors


# -- trace analysis ----------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Span id -> self time: its duration minus the part of its interval
    that its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) -
            covered(children.get(s["id"], []), s["start"], s["end"]) for s in spans}


def untraced_share(round_span, spans):
    """Share of a round's wall-clock that no other span of the round covers."""
    lo, hi = round_span["start"], round_span["end"]
    inner = [(s["start"], s["end"]) for s in spans
             if s["round"] == round_span["round"] and s["id"] != round_span["id"]]
    return 1.0 - covered(inner, lo, hi) / (hi - lo)


def pool_busy_share(round_span, spans, threads):
    """Exchange-task span time over (threads x the round's wall-clock)."""
    busy = sum(s["end"] - s["start"] for s in spans
               if s["round"] == round_span["round"] and s["name"] == "fl.client.exchange")
    return busy / (threads * (round_span["end"] - round_span["start"]))


def load_spans(trace):
    """Complete events of a Chrome trace as dicts with times in ms."""
    return [{"name": e["name"], "start": e["ts"] / 1e3, "end": (e["ts"] + e["dur"]) / 1e3,
             "id": e["args"]["id"], "parent": e["args"]["parent"],
             "round": e["args"]["round"], "client": e["args"]["client"]}
            for e in trace["traceEvents"] if e.get("ph") == "X"]


def summarize_trace(trace, raw):
    spans = load_spans(trace)
    timed = set(range(1, raw["timed_rounds_per_pass"] + 1))
    threads = raw["threads"]
    rounds = sorted((s for s in spans if s["name"] == "fl.round" and s["round"] in timed),
                    key=lambda s: s["round"])
    own = self_times(spans)

    per_round = {}
    for metric, name in SPAN_PER_ROUND.items():
        sums = {r: 0.0 for r in timed}
        for s in spans:
            if s["name"] == name and s["round"] in timed:
                sums[s["round"]] += s["end"] - s["start"]
        per_round[metric] = [sums[r] for r in sorted(timed)]
    for metric, name in SPAN_PER_OCCURRENCE.items():
        per_round[metric] = [s["end"] - s["start"] for s in spans
                             if s["name"] == name and s["round"] in timed]
    per_round["fl.round.untraced_share"] = [untraced_share(r, spans) for r in rounds]
    per_round["fl.round.pool_busy_share"] = [pool_busy_share(r, spans, threads)
                                             for r in rounds]

    # Self times of the spans inside timed rounds: the fl.round spans and
    # their descendants (probe spans between rounds are left out).
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    self_ms, stack = {}, list(rounds)
    while stack:
        s = stack.pop()
        self_ms[s["name"]] = self_ms.get(s["name"], 0.0) + own[s["id"]]
        stack.extend(children.get(s["id"], []))
    n = max(1, len(rounds))
    return {
        "per_round": per_round,
        "self_ms_per_round": {k: v / n for k, v in self_ms.items()},
        "round_ms_mean": sum(r["end"] - r["start"] for r in rounds) / n,
    }


def layer_samples(raw, summary):
    """Per-layer metric name -> samples (per round where the layer has one)."""
    out = {k: v for k, v in raw["per_round"].items()}
    out.update({k: [v] for k, v in raw["scalars"].items()})
    out.update(summary["per_round"])
    # DINAR's obfuscated global model can sit at chance level, so its
    # accuracy is a server-side quality figure here, not an end-to-end one.
    out["fl.global_acc"] = [raw["passes"][0]["global_acc"]]
    out["fl.round.trace_overhead_rounds_per_s"] = [
        raw["scalars"]["fl.round.traced_rounds_per_s"] -
        raw["scalars"]["fl.round.untraced_rounds_per_s"]]
    return {k: v for k, v in out.items() if v}


def format_self_times(summary):
    rows = sorted(summary["self_ms_per_round"].items(), key=lambda kv: -kv[1])
    lines = ["self time per timed round (span minus child spans; round %s ms):"
             % sig(summary["round_ms_mean"], 4)]
    lines += ["  %-28s %10s ms" % (name, sig(ms, 4)) for name, ms in rows]
    return "\n".join(lines)
