"""Arithmetic of the round benchmark: percentile rule, self time, shares.

    python3 -m unittest discover -s roundbench/tests
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402


def span(id_, name, start, end, parent=-1, round_=1):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "round": round_, "client": -1}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(stats.highest_percentile(100), 90)
        self.assertEqual(stats.highest_percentile(50), 80)
        self.assertEqual(stats.highest_percentile(48), 79)
        self.assertIsNone(stats.highest_percentile(10))
        for n in range(11, 400):
            p = stats.highest_percentile(n)
            self.assertGreaterEqual(stats.samples_beyond(n, p), 10)
            if p < 99:
                self.assertLess(stats.samples_beyond(n, p + 1), 10)

    def test_rounds_needed_is_the_inverse(self):
        self.assertEqual(stats.rounds_needed(90), 100)
        self.assertEqual(stats.rounds_needed(80), 50)
        for p in range(50, 99):
            n = stats.rounds_needed(p)
            self.assertGreaterEqual(stats.highest_percentile(n), p)
            self.assertLess(stats.samples_beyond(n - 1, p), 10)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile([7.0], 80), 7.0)

    def test_tail_metric_needs_ten_rounds_beyond(self):
        raw = {"passes": [{"round_ms": [float(i) for i in range(49)], "timed_s": 1.0,
                           "setup_s": 1, "recover_s": 1, "up_bytes_per_round": 1,
                           "down_bytes_per_round": 1, "accepted": 1, "selected": 1,
                           "global_acc": 1, "personal_acc": 1, "mia_local_auc": 0.5}],
               "peak_rss_mb": 1}
        self.assertNotIn("round_ms.p80", stats.end_to_end_samples(raw, 80))
        raw["passes"][0]["round_ms"].append(49.0)
        self.assertEqual(stats.end_to_end_samples(raw, 80)["round_ms.p80"], [39.0])


class SelfTime(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        spans = [span(0, "parent", 0, 10), span(1, "a", 1, 4, parent=0),
                 span(2, "b", 3, 6, parent=0),  # overlaps a: union 1..6
                 span(3, "grandchild", 1, 2, parent=1)]
        own = stats.self_times(spans)
        self.assertAlmostEqual(own[0], 5.0)
        self.assertAlmostEqual(own[1], 2.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 1.0)

    def test_children_outside_the_span_are_clipped(self):
        spans = [span(0, "parent", 0, 10), span(1, "late", 8, 14, parent=0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 8.0)


class Shares(unittest.TestCase):
    def test_untraced_share_is_the_uncovered_part_of_the_round(self):
        spans = [span(0, "fl.round", 0, 100), span(1, "x", 10, 30, parent=0),
                 span(2, "y", 20, 50, parent=0), span(3, "z", 90, 120),
                 span(4, "other-round", 50, 90, round_=2)]
        # covered: 10..50 and 90..100 = 50 of 100
        self.assertAlmostEqual(stats.untraced_share(spans[0], spans), 0.5)

    def test_pool_busy_share(self):
        spans = [span(0, "fl.round", 0, 100),
                 span(1, "fl.client.exchange", 0, 100, parent=0),
                 span(2, "fl.client.exchange", 0, 50, parent=0)]
        self.assertAlmostEqual(stats.pool_busy_share(spans[0], spans, 3), 0.5)

    def test_summary_per_round_sums(self):
        trace = {"traceEvents": [
            {"ph": "M", "name": "process_name"},
            {"ph": "X", "name": "fl.round", "ts": 0, "dur": 1000,
             "args": {"id": 0, "parent": -1, "round": 1, "client": -1}},
            {"ph": "X", "name": "fl.wire.encode", "ts": 100, "dur": 200,
             "args": {"id": 1, "parent": 0, "round": 1, "client": -1}},
            {"ph": "X", "name": "fl.wire.encode", "ts": 400, "dur": 100,
             "args": {"id": 2, "parent": 0, "round": 1, "client": 3}},
            {"ph": "X", "name": "fl.wire.encode", "ts": 0, "dur": 900,
             "args": {"id": 3, "parent": -1, "round": 0, "client": -1}},
            {"ph": "X", "name": "probe.net", "ts": 1000, "dur": 50,
             "args": {"id": 4, "parent": -1, "round": 1, "client": -1}}]}
        summary = stats.summarize_trace(trace, {"timed_rounds_per_pass": 1, "threads": 1})
        self.assertAlmostEqual(summary["per_round"]["fl.wire.encode_ms"][0], 0.3)
        self.assertAlmostEqual(summary["per_round"]["fl.round.untraced_share"][0], 0.7)
        self.assertAlmostEqual(summary["self_ms_per_round"]["fl.round"], 0.7)
        self.assertAlmostEqual(summary["self_ms_per_round"]["fl.wire.encode"], 0.3)
        self.assertNotIn("probe.net", summary["self_ms_per_round"])


if __name__ == "__main__":
    unittest.main()
