"""Tests of the benchmark's aggregation, paper comparison and metric
lists. Run: python3 hixbench/test_metrics.py"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402
import run  # noqa: E402


def paper_exact_ratios():
    """fig-solo ratios that reproduce every published overhead."""
    r = {app: 1.2 for app in metrics.RODINIA}
    r.update({"BP": 1.815, "NW": 1.701, "PF": 2.54})
    # Shift one app so the Rodinia mean is exactly +26.8%.
    others = sum(v for k, v in r.items() if k != "GS")
    r["GS"] = 9 * 1.268 - others
    r.update({k: 2.5 for k in metrics.MATRIX_ADD})
    r["mul-11264"] = 1.0634
    return r


def fake_pass(run_s, cpu_s, steal_share=0.0, slowdown=1.0):
    loop = run.REFERENCE_LOOP_S * slowdown
    return {"run_s": run_s, "cpu_s": cpu_s, "steal_share": steal_share,
            "setup_s": 0.01, "calib_pass_s": loop, "calib_setup_s": loop,
            "peak_rss_mb": 80.0}


class HostValues(unittest.TestCase):
    def test_medians_over_passes(self):
        v = run.host_values([fake_pass(3.0, 12.0), fake_pass(1.0, 4.0),
                             fake_pass(2.0, 8.0), fake_pass(9.0, 36.0)])
        self.assertAlmostEqual(v["run_s"], 2.5)
        self.assertAlmostEqual(v["pass_cpu_s"], 10.0)
        self.assertEqual(v["peak_rss_mb"], 80.0)

    def test_host_speed_and_steal_are_taken_out(self):
        # Half the host's time stolen, and a reference loop 1.5x slower
        # than at reference speed: the same 2 s pass, seen through both.
        slower = 1.5 ** run.SPEED_EXPONENT
        v = run.host_values([fake_pass(2.0 / 0.5 * slower, 6.0 * slower,
                                       steal_share=0.5, slowdown=1.5)])
        self.assertAlmostEqual(v["run_s"], 2.0)
        self.assertAlmostEqual(v["pass_cpu_s"], 6.0)

    def test_run_s_sees_lost_parallelism(self):
        # The same CPU time on one thread instead of four.
        parallel = run.host_values([fake_pass(3.0, 12.0)])
        serial = run.host_values([fake_pass(12.0, 12.0)])
        self.assertEqual(parallel["pass_cpu_s"], serial["pass_cpu_s"])
        self.assertAlmostEqual(serial["run_s"] / parallel["run_s"], 4.0)


class PaperComparison(unittest.TestCase):
    def test_exact_reproduction_has_zero_error(self):
        r = paper_exact_ratios()
        self.assertAlmostEqual(metrics.hix_overhead_pct(r), 26.8)
        self.assertAlmostEqual(metrics.paper_err_pp(r), 0.0, places=9)

    def test_error_is_mean_absolute_pp(self):
        r = paper_exact_ratios()
        r["PF"] += 0.12  # PF +12 pp, and the Rodinia mean +12/9 pp
        expected = (12 + 12 / 9) / len(metrics.PAPER_OVERHEAD_PCT)
        self.assertAlmostEqual(metrics.paper_err_pp(r), expected)
        r["PF"] -= 0.24  # errors count by magnitude
        self.assertAlmostEqual(metrics.paper_err_pp(r), expected)

    def test_add_compares_the_mean_of_the_four_sizes(self):
        r = paper_exact_ratios()
        r["add-2048"], r["add-11264"] = 2.0, 3.0
        self.assertAlmostEqual(metrics.paper_err_pp(r), 0.0, places=9)

    def test_failed_calls_are_left_out(self):
        r = paper_exact_ratios()
        del r["PF"], r["add-2048"]
        labels = [k for k, _, _ in metrics.paper_comparison(r)]
        self.assertNotIn("PF", labels)
        self.assertIn("add", labels)
        self.assertEqual(metrics.paper_err_pp({}), 0.0)

    def test_overhead_of_nine_apps(self):
        r = {app: 1.5 for app in metrics.RODINIA}
        r["NN"] = 0.6
        self.assertAlmostEqual(metrics.hix_overhead_pct(r), (8 * 50 - 40) / 9)


class Runner(unittest.TestCase):
    def test_streams_are_distinct_and_repeatable(self):
        seeds = {run.stream_seed(7, s) for s in range(run.STREAMS)}
        self.assertEqual(len(seeds), run.STREAMS)
        self.assertNotIn(run.stream_seed(8, 0), seeds)
        self.assertEqual(run.stream_seed(7, 3), run.stream_seed(7, 3))

    def test_time_loop_runs_min_passes_then_stops(self):
        calls = []
        n = run.time_loop(0, 3, calls.append)
        self.assertEqual(n, 3)
        self.assertEqual(calls, [0, 1, 2])

    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads(
            (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
