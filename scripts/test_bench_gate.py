"""Tests of bench_gate's verdict, over records built inline.

Run with `python3 -m unittest discover -s scripts`.
"""

import unittest

from bench_gate import verdict

BENCH = {
    "workloads": [{"name": "reproduce"}, {"name": "serve_clean"}],
    "end_to_end": [
        {"name": "p50_ms", "better": "lower", "bound": 0.25},
        {"name": "qps", "better": "higher", "bound": 0.25},
    ],
}
BASE = {"p50_ms": 100.0, "qps": 10.0}


def record(workload, seed, p50_ms, qps, correct=True, failed=0):
    return {
        "workload": workload,
        "seed": seed,
        "result": {
            "correct": correct,
            "attempted": 1000,
            "failed": failed,
            "metrics": {
                "p50_ms": {"value": p50_ms, "unit": "ms"},
                "qps": {"value": qps, "unit": "1/s"},
            },
        },
    }


def side(scale=None, **overrides):
    """Ten runs of each workload, every metric at BASE times `scale`."""
    scale = scale or {}
    return [
        record(w, seed,
               p50_ms=BASE["p50_ms"] * scale.get("p50_ms", 1.0) * (1 + seed / 1000),
               qps=BASE["qps"] * scale.get("qps", 1.0) * (1 + seed / 1000),
               **overrides)
        for seed in range(1, 11)
        for w in ("reproduce", "serve_clean")
    ]


class Verdict(unittest.TestCase):
    def failures(self, head, base=None):
        _, failures = verdict(BENCH, {"base": base or side(), "head": head})
        return failures

    def test_p50_regression_past_its_bound_fails(self):
        failures = self.failures(side({"p50_ms": 1.3}))
        self.assertTrue(any(f.startswith("reproduce/p50_ms") for f in failures), failures)
        self.assertFalse(any("qps" in f for f in failures), failures)

    def test_qps_drop_past_its_bound_fails(self):
        failures = self.failures(side({"qps": 0.7}))
        self.assertTrue(any(f.startswith("serve_clean/qps") for f in failures), failures)

    def test_qps_rise_passes_because_higher_is_better(self):
        self.assertEqual(self.failures(side({"qps": 1.5})), [])

    def test_drift_inside_every_bound_passes(self):
        self.assertEqual(self.failures(side({"p50_ms": 1.2, "qps": 0.8})), [])

    def test_one_incorrect_run_fails(self):
        head = side()
        head[3]["result"]["correct"] = False
        failures = self.failures(head)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("correct: false", failures[0])

    def test_higher_failed_share_on_head_fails_with_equal_medians(self):
        failures = self.failures(side(failed=2), base=side(failed=1))
        self.assertEqual(len(failures), 2, failures)
        self.assertTrue(all("failed" in f for f in failures), failures)

    def test_lower_failed_share_on_head_passes(self):
        self.assertEqual(self.failures(side(failed=1), base=side(failed=2)), [])


if __name__ == "__main__":
    unittest.main()
