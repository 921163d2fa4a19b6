"""Unit tests for benchmark/compare.py.

    python3 -m unittest benchmark/test_compare.py
"""

import contextlib
import io
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(compare.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_known_values(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5]), (1.5, 3.0, 4.5))

    def test_single_run(self):
        self.assertEqual(compare.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            compare.quartiles([])


class Verdicts(unittest.TestCase):
    def test_latency_within_bound_is_same(self):
        self.assertEqual(compare.verdict([1.00, 1.01, 0.99], [1.05, 1.06, 1.04], "lower", 0.10),
                         "same")

    def test_latency_past_bound_is_worse(self):
        self.assertEqual(compare.verdict([1.00, 1.01, 0.99], [1.20, 1.21, 1.19], "lower", 0.10),
                         "worse")

    def test_lower_throughput_is_worse(self):
        self.assertEqual(compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.10), "worse")

    def test_higher_throughput_is_better(self):
        self.assertEqual(compare.verdict([100, 101, 99], [115, 116, 114], "higher", 0.10),
                         "better")

    def test_improvement_inside_bound_is_same(self):
        self.assertEqual(compare.verdict([1.00, 1.02, 0.99, 1.01], [0.95, 0.96, 0.94, 0.95],
                                         "lower", 0.10), "same")

    def test_failed_frac_uses_an_absolute_bound(self):
        # From 0 a relative bound would flag any failure; 0.004 is inside 0.005.
        self.assertEqual(compare.verdict([0.0, 0.0, 0.0], [0.004, 0.004, 0.004], "lower", 0.005,
                                         absolute=True), "same")
        self.assertEqual(compare.verdict([0.0, 0.0, 0.0], [0.01, 0.01, 0.01], "lower", 0.005,
                                         absolute=True), "worse")

    def test_spread_past_bound_is_unresolved(self):
        noisy = [1.0, 1.3, 0.8, 1.2]
        self.assertEqual(compare.verdict(noisy, [1.1, 1.0, 1.2, 0.9], "lower", 0.10),
                         "unresolved")

    def test_unresolved_even_when_the_median_looks_worse(self):
        self.assertEqual(compare.verdict([1.0, 1.3, 0.8, 1.2], [1.5, 1.1, 1.6, 1.2], "lower",
                                         0.10), "unresolved")

    def test_wide_spread_but_every_head_run_better(self):
        self.assertEqual(compare.verdict([1.0, 1.3, 0.8, 1.2], [0.5, 0.6, 0.7, 0.55], "lower",
                                         0.10), "better")


class EndToEnd(unittest.TestCase):
    SPEC = {
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }

    def write_runs(self, tmp, tag, latency, throughput, failed, seconds=20, trace=0):
        paths = []
        for i, (lat, thr) in enumerate(zip(latency, throughput)):
            run = {"run": f"{tag}{i}", "seconds": seconds, "trace": trace,
                   "workloads": {"w": {"attempted": 100, "failed": failed, "metrics": {
                "latency_p50_s": {"value": lat, "unit": "s", "samples": 10},
                "throughput_per_s": {"value": thr, "unit": "1/s", "samples": 10}}}}}
            p = Path(tmp) / f"{tag}{i}.json"
            p.write_text(json.dumps(run))
            paths.append(str(p))
        return paths

    def run_main(self, base, head, spec_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = compare.main(["--spec", spec_path, "--base", *base, "--head", *head])
        return code, out.getvalue()

    def test_regression_sets_exit_status(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "BENCHMARK.json"
            spec.write_text(json.dumps(self.SPEC))
            base = self.write_runs(tmp, "a", [1.0, 1.01, 0.99], [100, 101, 99], 0)
            head = self.write_runs(tmp, "b", [1.0, 1.01, 0.99], [70, 71, 69], 0)
            code, text = self.run_main(base, head, str(spec))
            self.assertEqual(code, 1)
            lines = {l.split()[1]: l.split()[-1] for l in text.splitlines()[1:]}
            self.assertEqual(lines, {"latency_p50_s": "same", "throughput_per_s": "worse",
                                     "failed_frac": "same"})

    def test_failures_are_compared(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "BENCHMARK.json"
            spec.write_text(json.dumps(self.SPEC))
            base = self.write_runs(tmp, "a", [1.0, 1.01, 0.99], [100, 101, 99], 0)
            head = self.write_runs(tmp, "b", [1.0, 1.01, 0.99], [100, 101, 99], 2)
            code, text = self.run_main(base, head, str(spec))
            self.assertEqual(code, 1)
            self.assertIn("worse", [l.split()[-1] for l in text.splitlines() if " failed_frac " in l])

    def test_needs_three_runs_per_side(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "BENCHMARK.json"
            spec.write_text(json.dumps(self.SPEC))
            base = self.write_runs(tmp, "a", [1.0, 1.01], [100, 101], 0)
            head = self.write_runs(tmp, "b", [1.0, 1.01, 0.99], [100, 101, 99], 0)
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(self.run_main(base, head, str(spec))[0], 2)

    def test_refuses_traced_runs(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "BENCHMARK.json"
            spec.write_text(json.dumps(self.SPEC))
            base = self.write_runs(tmp, "a", [1.0, 1.01, 0.99], [100, 101, 99], 0)
            head = self.write_runs(tmp, "b", [1.0, 1.01, 0.99], [100, 101, 99], 0, trace=1)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                self.assertEqual(self.run_main(base, head, str(spec))[0], 2)
            self.assertIn("traced", err.getvalue())

    def test_refuses_runs_of_different_seconds(self):
        # Different --seconds means different operation counts, so a p99
        # over a different number of samples.
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "BENCHMARK.json"
            spec.write_text(json.dumps(self.SPEC))
            base = self.write_runs(tmp, "a", [1.0, 1.01, 0.99], [100, 101, 99], 0, seconds=20)
            head = self.write_runs(tmp, "b", [1.0, 1.01, 0.99], [100, 101, 99], 0, seconds=10)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                self.assertEqual(self.run_main(base, head, str(spec))[0], 2)
            self.assertIn("--seconds", err.getvalue())


if __name__ == "__main__":
    unittest.main()
