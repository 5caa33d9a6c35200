"""Registry semantics: pulled series, identity, label handling, roll-ups."""

from types import SimpleNamespace

import pytest

from repro.obs import MetricsRegistry
from repro.sim.monitor import Histogram


def series(reg, kind, name, **labels):
    """The collected value of one series (KeyError when absent)."""
    for k, n, lbls, value in reg.collect():
        if (k, n, lbls) == (kind, name, labels):
            return value
    raise KeyError((kind, name, labels))


class TestCounter:
    def test_starts_at_zero(self):
        reg = MetricsRegistry()
        reg.pull(SimpleNamespace(n=0), counters=[("c", "n")])
        assert series(reg, "counter", "c") == 0

    def test_reads_source_at_collection_time(self):
        reg = MetricsRegistry()
        src = SimpleNamespace(n=0)
        reg.pull(src, counters=[("c", "n")])
        src.n += 6
        assert series(reg, "counter", "c") == 6
        assert reg.counter_total("c") == 6

    def test_dotted_attribute_and_callable_fields(self):
        reg = MetricsRegistry()
        src = SimpleNamespace(stats=SimpleNamespace(a=5, b=2))
        reg.pull(src, counters=[("a", "stats.a"), ("diff", lambda s: s.stats.a - s.stats.b)])
        assert series(reg, "counter", "a") == 5
        assert series(reg, "counter", "diff") == 3

    def test_same_name_and_labels_is_same_instrument(self):
        """Two sources bound under one key are one series: their sum."""
        reg = MetricsRegistry()
        old, new = SimpleNamespace(n=4), SimpleNamespace(n=0)
        reg.pull(old, counters=[("hits", "n")], node="s1")
        reg.pull(new, counters=[("hits", "n")], node="s1")
        new.n = 3
        rows = [r for r in reg.collect() if r[1] == "hits"]
        assert rows == [("counter", "hits", {"node": "s1"}, 7)]
        assert reg.counter_total("hits") == 7

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.pull(SimpleNamespace(n=1), counters=[("hits", "n")], node="s1", role="server")
        reg.pull(SimpleNamespace(n=2), counters=[("hits", "n")], role="server", node="s1")
        assert len(list(reg.collect())) == 1
        assert series(reg, "counter", "hits", node="s1", role="server") == 3

    def test_different_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        a, b = SimpleNamespace(n=0), SimpleNamespace(n=0)
        reg.pull(a, counters=[("hits", "n")], node="s1")
        reg.pull(b, counters=[("hits", "n")], node="s2")
        a.n = 3
        assert series(reg, "counter", "hits", node="s1") == 3
        assert series(reg, "counter", "hits", node="s2") == 0

    def test_counter_total_sums_across_label_sets(self):
        reg = MetricsRegistry()
        reg.pull(SimpleNamespace(h=3, m=99), counters=[("hits", "h"), ("misses", "m")], node="s1")
        reg.pull(SimpleNamespace(h=4), counters=[("hits", "h")], node="s2")
        assert reg.counter_total("hits") == 7

    def test_counter_total_of_unknown_name_is_zero(self):
        assert MetricsRegistry().counter_total("nope") == 0


class TestGauge:
    def test_reads_newest_source(self):
        """A restarted daemon's gauge reports the live instance, not the
        dead one — unlike a counter, which sums both."""
        reg = MetricsRegistry()
        old, new = SimpleNamespace(load=0.9), SimpleNamespace(load=0.1)
        reg.pull(old, gauges=[("load", "load")], node="s1")
        reg.pull(new, gauges=[("load", "load")], node="s1")
        assert series(reg, "gauge", "load", node="s1") == pytest.approx(0.1)
        new.load = 0.25
        assert series(reg, "gauge", "load", node="s1") == pytest.approx(0.25)

    def test_gauge_and_counter_namespaces_are_separate(self):
        reg = MetricsRegistry()
        src = SimpleNamespace(n=1, g=0)
        reg.pull(src, counters=[("x", "n")], gauges=[("x", "g")])
        assert series(reg, "counter", "x") == 1
        assert series(reg, "gauge", "x") == 0
        assert reg.counter_total("x") == 1


class TestHistogramSeries:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait", node="m1")
        assert h is reg.histogram("wait", node="m1")
        assert isinstance(h, Histogram)

    def test_merged_histogram_spans_label_sets(self):
        reg = MetricsRegistry()
        reg.histogram("wait", node="m1").record(1.0)
        reg.histogram("wait", node="m2").record(3.0)
        merged = reg.merged_histogram("wait").summary()
        assert merged.count == 2
        assert merged.mean == pytest.approx(2.0)

    def test_merged_histogram_does_not_mutate_sources(self):
        reg = MetricsRegistry()
        src = reg.histogram("wait", node="m1")
        src.record(1.0)
        reg.merged_histogram("wait").record(100.0)
        assert src.summary().count == 1


class TestCollect:
    def test_collect_yields_sorted_series(self):
        reg = MetricsRegistry()
        reg.pull(SimpleNamespace(n=1), counters=[("b", "n")])
        reg.pull(SimpleNamespace(n=2), counters=[("a", "n")], node="s1")
        reg.pull(SimpleNamespace(g=1.5), gauges=[("g", "g")])
        reg.histogram("h").record(0.1)
        rows = list(reg.collect())
        kinds = [r[0] for r in rows]
        names = [r[1] for r in rows]
        assert kinds == sorted(kinds)
        assert names == ["a", "b", "g", "h"]
        by_name = {r[1]: r for r in rows}
        assert by_name["a"][2] == {"node": "s1"}
        assert by_name["a"][3] == 2
        assert by_name["g"][3] == 1.5
        assert isinstance(by_name["h"][3], Histogram)
