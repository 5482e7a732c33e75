#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_run.py

They build like the benchmark does and run it at `--scale tiny`.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = ("wall_s", "latency_p50_ms", "latency_tail_ms", "cpu_s", "peak_rss_mb",
              "ok_frac", "setup_s")


def bench(workload, trace=0, *extra):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", "3", "--seconds", "1", "--trace", str(trace),
                        "--scale", "tiny", *extra],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_workload_runs_and_is_correct(self):
        for w in ("explore", "static", "lint", "run"):
            with self.subTest(workload=w):
                res = bench(w)
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(set(res["metrics"]), set(END_TO_END))
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)


class CorruptedExpectation(unittest.TestCase):
    def test_flipped_state_count_counts_as_failed(self):
        bad = os.path.join(ROOT, ".bench_work", "corrupt_expected")
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(os.path.join(HERE, "expected"), bad)
        path = os.path.join(bad, "fork_join.explore.txt")
        with open(path) as f:
            text = f.read()
        self.assertTrue(text.startswith("141 state(s)"))
        with open(path, "w") as f:
            f.write("142" + text[3:])
        res = bench("explore", 0, "--expected-dir", bad)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["metrics"]["ok_frac"]["value"], 1.0)

    def test_wrong_untimed_lint_report_counts_as_failed(self):
        # The lint fixtures run once, untimed, after the passes; a report
        # that differs from its golden file must still fail the run.
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import run\n"
            "setup = run.setup\n"
            "def corrupt(*a):\n"
            "    work, reqs, extra = setup(*a)\n"
            "    rid, argv, kind, data = extra['untimed'][0]\n"
            "    extra['untimed'][0] = (rid, argv, kind, data + 'x')\n"
            "    return work, reqs, extra\n"
            "run.setup = corrupt\n"
            "sys.argv = ['run.py'] + sys.argv[2:]\n"
            "sys.exit(run.main())\n")
        r = subprocess.run([sys.executable, "-c", code, HERE, "--workload", "lint", "--seed", "3",
                            "--seconds", "1", "--trace", "0", "--scale", "tiny"],
                           cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(r.returncode, 0, r.stderr)
        res = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertIn("differs from its golden file", r.stderr)


class TracedSelfTimes(unittest.TestCase):
    def test_self_times_are_non_negative(self):
        res = bench("lint", 1)
        self.assertTrue(res["correct"])
        m = res["metrics"]
        self.assertGreaterEqual(m["lints.self_ms"]["value"], 0.0)
        spans = os.path.join(ROOT, ".bench_work", "lint", "spans.jsonl")
        with open(spans) as f:
            rows = [json.loads(line) for line in f]
        self.assertTrue(any(r["name"] == "lints.pipeline" for r in rows))
        for r in rows:
            self.assertGreaterEqual(r["self_ns"], 0)
            self.assertLessEqual(r["self_ns"], r["end_ns"] - r["start_ns"])


if __name__ == "__main__":
    unittest.main()
