#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py          # from the checkout root

The statistics tests run without a build. The harness tests build the
daemon and pbtool (like run.py) and drive short ingest_storm runs against
a real daemon: a clean run passes, an injected client stall shows up in
due-time latency and invalidates the run, and a corrupted reply fails the
output check.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SHORT_SECONDS = 4


def fake_load(**overrides):
    """A pbtool load result with 2000 clean samples of each kind."""
    lat = [0.5 + i * 1e-4 for i in range(2000)]
    load = {
        "latency_ms": {"query": list(lat), "ingest": list(lat),
                       "fresh_rec": list(lat), "bgsave": []},
        "gen_lag_ms": [0.01] * 2000,
        "attempted": 6000, "failed": 0, "open_attempted": 6000,
        "slo_miss": 0, "saturation_seconds": 1.0, "saturation_bin_s": 0.25,
        "saturation_bins": [100, 120, 110, 90], "hits": 5,
        "held_out_items": 100,
    }
    load.update(overrides)
    return load


class PercentileTest(unittest.TestCase):

    def test_p99_needs_ten_samples_beyond(self):
        s = list(range(1, 1001))  # rank 990 leaves exactly 10 above
        self.assertEqual(run.tail_percentile(s), (0.99, 990))
        s = list(range(1, 1000))  # 999 samples: p99 leaves 9, p98 leaves 19
        self.assertEqual(run.tail_percentile(s), (0.98, 980))

    def test_falls_back_to_lower_levels(self):
        self.assertEqual(run.tail_percentile(list(range(1, 101))), (0.9, 90))
        self.assertEqual(run.tail_percentile(list(range(1, 21))), (0.5, 10))
        self.assertEqual(run.tail_percentile([1.0] * 5), (None, None))

    def test_order_of_samples_does_not_matter(self):
        s = list(range(1, 1001))
        self.assertEqual(run.tail_percentile(s[::-1]), (0.99, 990))

    def test_nearest_rank_median(self):
        self.assertEqual(run.nearest_rank([1, 2, 3, 4], 0.5), 2)
        self.assertEqual(run.nearest_rank([7], 0.5), 7)

    def test_windowed_median_ignores_a_slow_stretch(self):
        # 30% of the run twice as slow: the plain median moves, the median
        # of the ten window medians does not.
        fast = [1.0 + (i * 37 % 100) * 1e-3 for i in range(700)]  # 1.000-1.099
        samples = fast[:350] + [2.0] * 300 + fast[350:]
        self.assertGreater(run.nearest_rank(sorted(samples), 0.5), 1.065)
        self.assertLess(run.windowed_median(samples), 1.055)


class AccountingTest(unittest.TestCase):

    def test_clean_load_is_correct(self):
        s = run.summarize_load(fake_load())
        self.assertTrue(s["correct"])
        self.assertEqual(s["failed"], 0)
        self.assertEqual(s["summary"]["query"]["tail_level"], 0.99)
        self.assertEqual(s["hit_rate_at_10"], 0.05)

    def test_failures_fail_the_run_and_count_as_slo_misses(self):
        s = run.summarize_load(fake_load(failed=3, slo_miss=3))
        self.assertFalse(s["correct"])
        self.assertEqual(s["failed"], 3)
        self.assertAlmostEqual(s["slo_miss_ratio"], 3 / 6000)

    def test_lagging_generator_invalidates_the_run(self):
        s = run.summarize_load(fake_load(gen_lag_ms=[50.0] * 2000))
        self.assertFalse(s["correct"])
        self.assertTrue(any("generator" in r for r in s["invalid"]))

    def test_missing_samples_invalidate_the_run(self):
        load = fake_load()
        load["latency_ms"]["fresh_rec"] = []
        s = run.summarize_load(load)
        self.assertFalse(s["correct"])

    def test_peak_rps_is_the_median_full_bin(self):
        # The last bin is cut by the window end and is dropped.
        load = fake_load(saturation_seconds=1.0,
                         saturation_bins=[100, 10, 120, 110, 7])
        self.assertEqual(run.peak_rps(load), 420.0)


class BenchmarkFileTest(unittest.TestCase):

    def test_metric_tables_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


class HarnessTest(unittest.TestCase):
    """Short ingest_storm runs against the real daemon."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        run.build()

    def load_json(self, seed):
        path = os.path.join(run.OUT_DIR, "load-ingest_storm-seed%d.json"
                            % seed)
        with open(path) as f:
            return json.load(f)

    def test_clean_run_passes_the_output_check(self):
        r = run.run_workload("ingest_storm", 901, SHORT_SECONDS, False)
        self.assertTrue(r["correct"], r["fingerprint"])
        self.assertEqual(r["failed"], 0)

    def test_injected_stall_shows_in_due_time_latency(self):
        stall_ms = 300
        r = run.run_workload("ingest_storm", 902, SHORT_SECONDS, False,
                             stall_ms=stall_ms)
        load = self.load_json(902)
        # Requests due during the stall were sent late, and their latency
        # counts from when they were due: the stall is in the latency.
        self.assertGreater(max(load["latency_ms"]["ingest"]), 0.9 * stall_ms)
        self.assertGreater(max(load["gen_lag_ms"]), 0.9 * stall_ms)
        self.assertFalse(r["correct"])
        self.assertTrue(any("generator" in reason
                            for reason in r["fingerprint"]["invalid"]))

    def test_output_check_rejects_a_corrupted_reply(self):
        r = run.run_workload("ingest_storm", 903, SHORT_SECONDS, False,
                             corrupt_probe=True)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertTrue(any("differs from the twin" in f
                            for f in r["fingerprint"]["failure_samples"]))


if __name__ == "__main__":
    unittest.main()
