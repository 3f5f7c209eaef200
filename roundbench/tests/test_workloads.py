"""A four-round traced run of every workload, end to end through run.py.

Each run builds the driver if needed, runs one untraced pass as the
reference and the traced replay of the same rounds, and must pass every
output check: the replay reproduces the final-model hash, recovery
reproduces it too, net.errors is 0. The per-run store and work
directories must be gone afterwards.

    python3 -m unittest discover -s roundbench/tests
"""
import glob
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)


class FewRoundRuns(unittest.TestCase):
    def run_workload(self, workload):
        seed = 3
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", "1", "--rounds", "4"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 4)
        self.assertIn("fl.round.untraced_share", result["metrics"])
        self.assertEqual(result["metrics"]["net.errors"]["value"], 0)
        target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        leftovers = glob.glob(os.path.join(target, "roundbench-work",
                                           "%s-%d-*" % (workload, seed)))
        self.assertEqual(leftovers, [])
        trace = os.path.join(target, "roundbench-traces", "%s-seed%d.trace.json"
                             % (workload, seed))
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(any(e["name"] == "fl.round" for e in events))

    def test_resnet_dinar(self):
        self.run_workload("resnet-dinar")

    def test_fleet_durable(self):
        self.run_workload("fleet-durable")

    def test_audio_tcp_eval(self):
        self.run_workload("audio-tcp-eval")


if __name__ == "__main__":
    unittest.main()
