"""Tests of the benchmark's own helpers (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import pathlib
import statistics
import unittest

import metrics

HERE = pathlib.Path(__file__).resolve().parent


class TailRuleTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertEqual(metrics.tail_percentile(39), 50.0)
        self.assertEqual(metrics.tail_percentile(40), 75.0)
        self.assertEqual(metrics.tail_percentile(99), 75.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(200), 95.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_chosen_level_always_leaves_ten_beyond(self):
        for n in range(20, 3000):
            level = metrics.tail_percentile(n)
            value = metrics.percentile(list(range(n)), level)
            self.assertGreaterEqual(sum(1 for x in range(n) if x > value), 10, n)

    def test_nearest_rank_percentile(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(metrics.percentile(values, 50), 3.0)
        self.assertEqual(metrics.percentile(values, 100), 5.0)
        self.assertEqual(metrics.percentile(values, 1), 1.0)
        self.assertEqual(metrics.percentile(list(range(1, 101)), 90), 90)

    def test_tail_falls_back_to_max(self):
        self.assertEqual(metrics.tail([3.0, 9.0, 1.0]), (100.0, 9.0))
        self.assertEqual(metrics.tail(list(range(1, 41))), (75.0, 30))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.quartile_spread(values), (q3 - q1) / q2)

    def test_known_values(self):
        # Exclusive method on 1..9: quartiles 2.5, 5, 7.5.
        self.assertAlmostEqual(metrics.quartile_spread(list(range(1, 10))), 1.0)
        self.assertEqual(metrics.quartile_spread([4.0] * 10), 0.0)


class NameGrammarTest(unittest.TestCase):
    def test_accepts(self):
        for name in ("setup_s", "nn.forward_ms_p50", "a", "9-lives", "x" * 64):
            self.assertTrue(metrics.valid_metric_name(name), name)

    def test_rejects(self):
        for name in ("", "_lead", ".lead", "has space", "slash/name", "x" * 65,
                     "tab\t", "unié"):
            self.assertFalse(metrics.valid_metric_name(name), name)

    def test_every_metric_name_is_valid_and_unique(self):
        names = list(metrics.END_TO_END) + list(metrics.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_metric_name(name), name)


class BenchmarkFileTest(unittest.TestCase):
    def test_lists_the_metrics_this_module_computes(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
        layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
        self.assertEqual(e2e, metrics.END_TO_END)
        self.assertEqual(layers, metrics.PER_LAYER)
        self.assertEqual(e2e["setup_s"], ("s", "lower"))
        setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup_bound, max(m["bound"] for m in bench["end_to_end"]))


def _raw(workload="surrogate_solo", statuses=("ok",) * 30):
    jobs = [{"status": s, "latency_s": 0.1 + 0.001 * i, "service_s": 0.05,
             "cell_steps": 100.0, "steps_executed": 6,
             "discarded_steps": 2, "restarted": 1, "fallback_steps": 1,
             "switches": 2, "quarantines": 0, "pcg_s": 0.01}
            for i, s in enumerate(statuses)]
    window = {"traced": 0, "wall_s": 2.0, "jobs": jobs, "step_s": [0.01] * 8,
              "solves": [[0.004, 0, 10, 1]] * 8, "forwards": [[0.002, 2e6]] * 8,
              "pcg_solves": 4, "pcg_iterations": 100, "offered_per_s": 0.0,
              "lag_max_s": 0.0, "batches": 0, "requests_batched": 0,
              "requests_inline": 0, "queue_high_water": 0, "degraded": 0}
    return {"workload": workload, "q": 0.1, "peak_rss_kb": 2048,
            "setups": [{"total_s": t, "train_s": 1.0, "quality_db_s": 1.0,
                        "prepack_s": 0.0, "ladder_hash": "ab"} for t in (3.0, 2.0, 4.0)],
            "windows": [window, dict(window, traced=1)],
            "checks": {"qloss": [0.05, 0.15], "solo_rerun_identical": 0,
                       "solo_rerun_mismatch": 0},
            "provenance": {"sfn_env": {}}}


class MetricComputationTest(unittest.TestCase):
    def test_end_to_end(self):
        m = metrics.end_to_end(_raw())
        self.assertEqual(set(m), set(metrics.END_TO_END))
        self.assertEqual(m["setup_s"], 3.0)
        self.assertAlmostEqual(m["cell_steps_per_s"], 30 * 100.0 / 2.0)
        self.assertAlmostEqual(m["quality_mean"], 0.9)
        self.assertEqual(m["peak_rss_mb"], 2.0)

    def test_per_layer(self):
        m = metrics.per_layer(_raw())
        self.assertEqual(set(m), set(metrics.PER_LAYER))
        self.assertAlmostEqual(m["core.encode_ms_per_solve"], 2.0)
        self.assertAlmostEqual(m["fluid.nonsolve_ms_per_step"], 6.0)
        self.assertAlmostEqual(m["nn.gflops_computed"], 1.0)
        self.assertAlmostEqual(m["runtime.wasted_step_frac"], 2 / 6)
        self.assertAlmostEqual(m["fluid.pcg_iters_per_solve"], 25.0)
        self.assertAlmostEqual(m["quality.success_frac"], 0.5)
        self.assertAlmostEqual(m["obs.trace_overhead_frac"], 0.0)

    def test_failures_count_against_attempted(self):
        raw = _raw(statuses=("ok",) * 27 + ("error", "rejected", "nonfinite"))
        attempted, failed, reasons = metrics.failures(raw)
        self.assertEqual((attempted, failed), (60, 6))
        self.assertEqual(len(reasons), 1)

    def test_divergent_ladders_fail(self):
        raw = _raw()
        raw["setups"][1]["ladder_hash"] = "cd"
        _, failed, reasons = metrics.failures(raw)
        self.assertEqual(failed, 1)
        self.assertIn("different ladders", reasons[0])

    def test_served_results_must_match_solo_reruns(self):
        raw = _raw(workload="serve_open")
        _, failed, _ = metrics.failures(raw)
        self.assertEqual(failed, 1)  # nothing was compared
        raw["checks"]["solo_rerun_identical"] = 2
        raw["checks"]["solo_rerun_mismatch"] = 1
        _, failed, reasons = metrics.failures(raw)
        self.assertEqual(failed, 1)
        self.assertIn("differ from their solo rerun", reasons[0])


if __name__ == "__main__":
    unittest.main()
