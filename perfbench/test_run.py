"""Tests of run.py's own logic: spec validation and metric selection.

Run from perfbench/:  python3 -B -m unittest -q test_run
"""

import json
import tempfile
import unittest
from pathlib import Path

import run


def write_spec(directory, end_to_end, per_layer):
    path = Path(directory) / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": end_to_end,
                                "per_layer": per_layer}))
    return path


def e2e(name, unit="ms"):
    return {"name": name, "unit": unit, "better": "lower", "bound": 0.1}


def layer(name, unit="us"):
    return {"name": name, "unit": unit, "better": "lower"}


class LoadSpecTest(unittest.TestCase):
    def test_accepts_valid_names(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = run.load_spec(write_spec(
                tmp, [e2e("setup_s", "s"), e2e("op_p50_ms")],
                [layer("serve.exec_us.point"), layer("plan.greedy_ms.all-1")]))
        self.assertEqual(len(spec["per_layer"]), 2)

    def test_rejects_invalid_names(self):
        for bad in ("stage.synthesize+analyze", "has space", "", ".dot",
                    "x" * 65):
            with self.subTest(name=bad), tempfile.TemporaryDirectory() as tmp:
                path = write_spec(tmp, [e2e("setup_s", "s")], [layer(bad)])
                with self.assertRaises(ValueError):
                    run.load_spec(path)

    def test_rejects_duplicates_and_missing_setup(self):
        with tempfile.TemporaryDirectory() as tmp:
            with self.assertRaises(ValueError):
                run.load_spec(write_spec(
                    tmp, [e2e("setup_s", "s")], [layer("setup_s", "s")]))
            with self.assertRaises(ValueError):
                run.load_spec(write_spec(tmp, [e2e("op_p50_ms")], []))

    def test_repository_spec_is_valid(self):
        spec = run.load_spec(run.ROOT / "BENCHMARK.json")
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])


class SelectMetricsTest(unittest.TestCase):
    def test_end_to_end_metrics_must_be_measured(self):
        with self.assertRaises(KeyError):
            run.select_metrics([e2e("op_p50_ms")], {}, fill_missing=False)

    def test_unexercised_layers_read_zero(self):
        picked = run.select_metrics(
            [layer("serve.exec_us.point"), layer("plan.actions", "count")],
            {"plan.actions": (12.0, "count"), "extra": (1.0, "s")},
            fill_missing=True)
        self.assertEqual(picked, {
            "serve.exec_us.point": {"value": 0.0, "unit": "us"},
            "plan.actions": {"value": 12.0, "unit": "count"}})

    def test_unit_must_match_spec(self):
        with self.assertRaises(ValueError):
            run.select_metrics([e2e("op_p50_ms")], {"op_p50_ms": (1.0, "s")},
                               fill_missing=False)


if __name__ == "__main__":
    unittest.main()
