#!/usr/bin/env python3
"""Self-tests for the benchmark's own logic (no build, no simulator).

    python3 perfbench/test_run.py
"""

import json
import os
import unittest

import run


class PercentileChoiceTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(5))
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(99), 50.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(9999), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_samples_beyond_is_exact_at_fractional_percentiles(self):
        self.assertEqual(run.samples_beyond(10000, 99.9), 10)
        self.assertEqual(run.samples_beyond(100, 90.0), 10)
        self.assertEqual(run.samples_beyond(7, 50.0), 3)

    def test_quantile_interpolates(self):
        self.assertEqual(run.quantile([], 0.5), 0.0)
        self.assertEqual(run.quantile([3.0], 0.9), 3.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertAlmostEqual(run.quantile(list(range(11)), 0.9), 9.0)


class EndToEndTest(unittest.TestCase):
    def test_repeats_are_summarized_per_key(self):
        raw = {
            "passes": [
                {"key": 0, "host_s": 1.0, "setup_s": 0.1, "cells": 2,
                 "sim_ops": 100},
                {"key": 1, "host_s": 3.0, "setup_s": 0.3, "cells": 2,
                 "sim_ops": 300},
                {"key": 0, "host_s": 2.0, "setup_s": 0.2, "cells": 2,
                 "sim_ops": 100},
                {"key": 0, "host_s": 9.0, "setup_s": 0.2, "cells": 2,
                 "sim_ops": 100},
            ],
            "cell_keys": [0, 1, 0, 1, 0, 1],
            "cell_ms": [1.0, 10.0, 3.0, 30.0, 2.0, 20.0],
            "peak_rss_mb": 42.0,
        }
        m = run.end_to_end_metrics(raw)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        # One set of keys: 400 ops and 4 cells over 1.0 + 3.0 fastest seconds.
        self.assertAlmostEqual(m["sim_ops_per_s"], 100.0)
        self.assertAlmostEqual(m["cells_per_s"], 1.0)
        # Over the cells' fastest repeats, 1.0 and 10.0.
        self.assertAlmostEqual(m["cell_ms_p50"], 5.5)
        self.assertAlmostEqual(m["cell_ms_p90"], 9.1)
        self.assertEqual(m["peak_rss_mb"], 42.0)

    def test_segmented_repeats_take_each_segments_fastest(self):
        # Two repeats of the same three segments: the first repeat was
        # disturbed in its first segment, the second in its last.
        self.assertAlmostEqual(
            run.fastest_time([9.0, 8.0], [[5.0, 2.0, 2.0], [1.0, 2.0, 5.0]]),
            5.0)
        # Unsplit repeats, or splits that do not line up, fall back to the
        # fastest whole repeat.
        self.assertEqual(run.fastest_time([9.0, 8.0], [[], []]), 8.0)
        self.assertEqual(run.fastest_time([9.0, 8.0], [[9.0], [4.0, 4.0]]),
                         8.0)
        raw = {
            "passes": [
                {"key": 0, "host_s": 9.0, "segments_s": [5.0, 2.0, 2.0],
                 "setup_s": 0.1, "cells": 1, "sim_ops": 100},
                {"key": 0, "host_s": 8.0, "segments_s": [1.0, 2.0, 5.0],
                 "setup_s": 0.1, "cells": 1, "sim_ops": 100},
            ],
            "cell_keys": [0, 0],
            "cell_ms": [9.5, 8.5],
            "cell_segments_ms": [[0.5, 5.0, 2.0, 2.0], [0.5, 1.0, 2.0, 5.0]],
            "peak_rss_mb": 1.0,
        }
        m = run.end_to_end_metrics(raw)
        self.assertAlmostEqual(m["sim_ops_per_s"], 20.0)
        self.assertAlmostEqual(m["cell_ms_p50"], 5.5)


class MetricNameTest(unittest.TestCase):
    def test_pattern(self):
        for ok in ("setup_s", "cluster.slo.p99_ms", "a-b.c_d", "9x"):
            self.assertTrue(run.valid_metric_name(ok), ok)
        for bad in ("", ".x", "_x", "a b", "a/b", "cell_ms{p90}", "x" * 65):
            self.assertFalse(run.valid_metric_name(bad), bad)

    def test_every_declared_metric_is_valid(self):
        for name in list(run.END_TO_END) + list(run.PER_LAYER):
            self.assertTrue(run.valid_metric_name(name), name)

    def test_with_units_rejects_an_invalid_emitted_name(self):
        with self.assertRaises(run.BenchError):
            run.with_units({"setup_s": 1.0, "bad name": 2.0}, {"setup_s": "s"})

    def test_declared_metrics_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))


def span(id_, parent, start, end, calls=1, busy=None):
    return {"id": id_, "parent": parent, "name": f"s{id_}", "start_ns": start,
            "end_ns": end, "calls": calls,
            "busy_ns": end - start if busy is None else busy}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span(1, 0, 0, 100)]), {1: 100})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60),
                 span(4, 1, 80, 90)]
        self.assertEqual(run.self_times(spans)[1], 100 - 50 - 10)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, 0, 50, 100), span(2, 1, 0, 60), span(3, 1, 90, 200)]
        self.assertEqual(run.self_times(spans)[1], 50 - 10 - 10)

    def test_aggregate_children_cover_their_busy_time(self):
        spans = [span(1, 0, 0, 1000), span(2, 1, 0, 990, calls=50, busy=600),
                 span(3, 1, 5, 995, calls=50, busy=300)]
        self.assertEqual(run.self_times(spans)[1], 100)

    def test_self_time_is_never_negative(self):
        spans = [span(1, 0, 0, 10), span(2, 1, 0, 10, calls=2, busy=50)]
        self.assertEqual(run.self_times(spans)[1], 0)


class ComparatorTest(unittest.TestCase):
    def test_equal(self):
        self.assertEqual(run.check_equal("x", 1, 1), [])
        self.assertEqual(run.check_equal("x", "a", "b"),
                         ["x: got 'a', want 'b'"])

    def test_fields_report_each_mismatch(self):
        errs = run.check_fields("c", {"a": 1, "b": 2}, {"a": 1, "b": 3},
                                ("a", "b"))
        self.assertEqual(errs, ["c.b: got 2, want 3"])
        self.assertEqual(len(run.check_fields("c", {}, {"a": 1}, ("a",))), 1)

    def test_within_tolerance(self):
        self.assertEqual(run.check_within("s", 11.9, 10.0, 0.20), [])
        self.assertEqual(len(run.check_within("s", 12.1, 10.0, 0.20)), 1)
        self.assertEqual(len(run.check_within("s", float("nan"), 10.0, 0.2)), 1)

    def test_closed_forms(self):
        self.assertEqual(run.closed_form("static", 50, 4, 10.0), 20.0)
        self.assertEqual(run.closed_form("adaptive", 50, 4, 10.0), 35.0)


class FaultCellCheckTest(unittest.TestCase):
    def cell(self, **kw):
        c = {"scenario": "retrystorm", "pattern": "budget", "seed": 1,
             "ok": True, "violations": 0, "lost_acked": 0,
             "under_replicated": 0, "faults": 2, "detected": 1, "missed": 1,
             "nmr_reads": 0, "nmr_acks": 0, "rejuvenations": 0,
             "evictions": 0, "denied_budget": 5, "storm": True,
             "collapsed": False}
        c.update(kw)
        return c

    def test_clean_cell_passes(self):
        self.assertEqual(run.fault_cell_errors(self.cell()), [])

    def test_budget_on_collapse_fails(self):
        self.assertEqual(len(run.fault_cell_errors(self.cell(collapsed=True))),
                         1)

    def test_budget_off_collapse_is_allowed(self):
        c = self.cell(pattern="none", denied_budget=0, collapsed=True)
        self.assertEqual(run.fault_cell_errors(c), [])

    def test_pattern_gating_and_scorecard_counts(self):
        self.assertTrue(run.fault_cell_errors(self.cell(evictions=1)))
        self.assertTrue(run.fault_cell_errors(self.cell(nmr_reads=3)))
        self.assertTrue(run.fault_cell_errors(self.cell(detected=2)))
        self.assertTrue(run.fault_cell_errors(
            self.cell(pattern="nmr", nmr_reads=2, nmr_acks=3)))


if __name__ == "__main__":
    unittest.main()
