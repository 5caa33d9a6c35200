"""scripts/check_perf.py: the perf gate against the committed BENCH baseline."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "check_perf.py"


@pytest.fixture(scope="module")
def check_perf():
    spec = importlib.util.spec_from_file_location("check_perf", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASELINE = {
    "label": "base",
    "calibration": 1.0e7,
    "metrics": {"locate_per_sec": 1000.0, "warm_locate_us": 50.0},
}


class TestCompareSuite:
    def test_within_threshold_passes(self, check_perf):
        current = {"locate_per_sec": 900.0, "warm_locate_us": 50.0}
        assert check_perf.compare_suite("kernel", BASELINE, current, 1.0e7, 0.25) == []

    def test_throughput_regression_fails(self, check_perf):
        current = {"locate_per_sec": 700.0, "warm_locate_us": 50.0}
        failures = check_perf.compare_suite("kernel", BASELINE, current, 1.0e7, 0.25)
        assert len(failures) == 1 and "kernel.locate_per_sec" in failures[0]

    def test_missing_metric_fails_and_is_named(self, check_perf):
        # A renamed or dropped scenario must not pass the gate unnoticed.
        current = {"warm_locate_us": 50.0}
        failures = check_perf.compare_suite("kernel", BASELINE, current, 1.0e7, 0.25)
        assert len(failures) == 1
        assert "kernel.locate_per_sec" in failures[0] and "missing" in failures[0]

    def test_new_metric_without_baseline_is_fine(self, check_perf):
        current = {"locate_per_sec": 1000.0, "warm_locate_us": 50.0, "cold_locate_per_sec": 1.0}
        assert check_perf.compare_suite("kernel", BASELINE, current, 1.0e7, 0.25) == []
