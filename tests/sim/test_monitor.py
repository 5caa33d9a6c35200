"""Unit tests for measurement utilities."""

import pytest

from repro.sim.monitor import Histogram


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        h = Histogram()
        h.extend(range(1, 101))  # 1..100
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95
        assert h.percentile(99) == 99
        assert h.percentile(100) == 100
        assert h.percentile(0) == 1

    def test_single_value(self):
        h = Histogram()
        h.record(7.0)
        assert h.percentile(50) == 7.0
        assert h.mean == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().percentile(50)
        with pytest.raises(ValueError):
            _ = Histogram().mean

    def test_bad_percentile(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_record_after_query(self):
        h = Histogram()
        h.record(5.0)
        assert h.percentile(50) == 5.0
        h.record(1.0)
        assert h.percentile(0) == 1.0

    def test_summary(self):
        h = Histogram()
        h.extend([1.0, 2.0, 3.0, 4.0])
        s = h.summary()
        assert s.count == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0

    def test_empty_summary_carries_count_zero(self):
        s = Histogram().summary()
        assert s.count == 0
        # Zeroed (not NaN) fields: empty summaries must survive strict
        # JSON export and merge arithmetic.
        assert s.mean == 0.0 and s.p50 == 0.0 and s.maximum == 0.0
        assert s.format() == "n=0"

    def test_merge_aggregates_samples(self):
        a, b = Histogram(), Histogram()
        a.extend([1.0, 3.0])
        b.extend([2.0, 4.0])
        assert a.merge(b) is a
        assert len(a) == 4
        assert a.percentile(0) == 1.0 and a.percentile(100) == 4.0
        assert a.mean == 2.5
        # The source histogram is untouched.
        assert len(b) == 2

    def test_merge_empty_is_noop(self):
        a = Histogram()
        a.record(5.0)
        a.merge(Histogram())
        assert a.summary().count == 1

    def test_merge_into_fresh_histogram(self):
        per_node = [Histogram(), Histogram(), Histogram()]
        for i, h in enumerate(per_node):
            h.extend([float(i), float(i) + 10.0])
        total = Histogram()
        for h in per_node:
            total.merge(h)
        s = total.summary()
        assert s.count == 6
        assert s.minimum == 0.0 and s.maximum == 12.0

    def test_format(self):
        h = Histogram()
        h.extend([0.001, 0.002])
        text = h.summary().format(scale=1000, unit="ms")
        assert "mean=1.50ms" in text
