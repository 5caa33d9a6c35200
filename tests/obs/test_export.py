"""Snapshot export: strict-JSON round-trip, derived roll-up, file I/O."""

import json
from types import SimpleNamespace

import pytest

from repro.obs import Observability, export


def populated_hub():
    obs = Observability()
    mgr = SimpleNamespace(
        lookups=10, hits=4, locates=5, sent=40, released=3, expired=1, population=7
    )
    obs.metrics.pull(
        mgr,
        counters=[
            ("cache_lookups_total", "lookups"),
            ("cache_hits_total", "hits"),
            ("cmsd_locate_requests_total", "locates"),
            ("cmsd_messages_sent_total", "sent"),
            ("rq_released_total", "released"),
            ("rq_expired_total", "expired"),
        ],
        gauges=[("cache_population", "population")],
        node="mgr",
    )
    obs.metrics.pull(
        SimpleNamespace(resolutions=5), counters=[("client_locates_total", "resolutions")], node="c0"
    )
    obs.metrics.histogram("rq_wait_seconds", node="mgr").record(0.000105)
    trace = obs.tracer.start("/store/f", client="c0")
    span = trace.begin("cmsd.locate", 0.0, node="mgr")
    trace.event("cache.lookup", 0.0, node="mgr", hit=False)
    trace.end(span, 1e-4, outcome="enqueued")
    obs.tracer.finish(trace, outcome="resolved")
    return obs


class TestRoundTrip:
    def test_snapshot_survives_strict_json(self):
        snap = export.snapshot(populated_hub())
        text = export.to_json(snap)
        assert json.loads(text) == json.loads(export.to_json(json.loads(text)))

    def test_empty_hub_is_still_strict_json(self):
        # The empty-histogram Summary must serialize as zeros, not NaN.
        snap = export.snapshot(Observability())
        parsed = json.loads(export.to_json(snap))
        assert parsed["schema"] == export.SCHEMA
        assert parsed["derived"]["queue_wait"]["count"] == 0
        assert parsed["derived"]["queue_wait"]["p99"] == 0.0

    def test_write_and_load(self, tmp_path):
        snap = export.snapshot(populated_hub(), extra={"experiment": "T1"})
        out = export.write(snap, tmp_path / "nested" / "t1.metrics.json")
        loaded = export.load(out)
        assert loaded["extra"] == {"experiment": "T1"}
        assert loaded == json.loads(export.to_json(snap))


class TestDerived:
    def test_headline_numbers(self):
        d = export.derive(populated_hub())
        assert d["cache_lookups"] == 10
        assert d["cache_hit_ratio"] == pytest.approx(0.4)
        assert d["resolutions"] == 5  # client-side count wins
        assert d["locate_hops"] == 5
        assert d["messages_per_resolution"] == pytest.approx(8.0)
        assert d["fast_release_ratio"] == pytest.approx(0.75)
        assert d["queue_wait"]["count"] == 1

    def test_resolutions_falls_back_to_cmsd_count(self):
        obs = Observability()
        obs.metrics.pull(
            SimpleNamespace(locates=7),
            counters=[("cmsd_locate_requests_total", "locates")],
            node="mgr",
        )
        assert export.derive(obs)["resolutions"] == 7

    def test_zero_activity_yields_zero_ratios(self):
        d = export.derive(Observability())
        assert d["cache_hit_ratio"] == 0.0
        assert d["messages_per_resolution"] == 0.0
        assert d["fast_release_ratio"] == 0.0


class TestSnapshotShape:
    def test_histograms_export_summaries_not_samples(self):
        snap = export.snapshot(populated_hub())
        hists = [m for m in snap["metrics"] if m["kind"] == "histogram"]
        assert hists and all("summary" in h and "value" not in h for h in hists)

    def test_traces_optional(self):
        obs = populated_hub()
        assert "traces" not in export.snapshot(obs, traces=False)
        snap = export.snapshot(obs)
        (trace,) = snap["traces"]
        assert trace["path"] == "/store/f"
        assert trace["root"]["children"][0]["attrs"]["outcome"] == "enqueued"
