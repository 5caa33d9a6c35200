"""JSON snapshot export and the derived cluster-level summary.

A snapshot is one self-contained JSON document: every metric series, a
derived roll-up of the numbers the paper's claims are phrased in, and the
retained resolution traces.  ``benchmarks/reporting.py`` writes one per
bench next to the markdown result table, and CI uploads them as artifacts
so a regression in cache-hit ratio or queue-wait tail is a diffable fact,
not a vibe.

Histograms are exported as their five-number summary (count / mean / p50 /
p95 / p99 / min / max) rather than raw samples — snapshots stay small and
the numbers match what the bench tables print.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict
from typing import Any

from repro.obs import Observability

__all__ = ["derive", "snapshot", "to_json", "write", "load"]

SCHEMA = "repro.obs/1"


def derive(obs: Observability) -> dict[str, Any]:
    """Cluster-level roll-up of the headline numbers.

    * ``cache_hit_ratio`` — cache hits over lookups, all nodes;
    * ``resolutions`` — end-to-end client lookups; in a deep tree one
      resolution touches several cmsds, so the per-hop count is reported
      separately as ``locate_hops``.  Falls back to the cmsd-side count
      when no instrumented client ran (e.g. raw-protocol workloads);
    * ``messages_per_resolution`` — cmsd messages sent per end-to-end
      resolution (the paper's "extremely small number of messages");
    * ``queue_wait`` — fast-response-queue anchor wait percentiles, all
      nodes merged (the §III-B claim: ~server response time, not 5 s);
    * ``fast_release_ratio`` — waiters released by a response vs expired
      into the full conservative delay.
    """
    m = obs.metrics
    lookups = m.counter_total("cache_lookups_total")
    hits = m.counter_total("cache_hits_total")
    hops = m.counter_total("cmsd_locate_requests_total")
    resolutions = m.counter_total("client_locates_total") or hops
    messages = m.counter_total("cmsd_messages_sent_total")
    released = m.counter_total("rq_released_total")
    expired = m.counter_total("rq_expired_total")
    wait = m.merged_histogram("rq_wait_seconds").summary()
    return {
        "cache_lookups": lookups,
        "cache_hit_ratio": (hits / lookups) if lookups else 0.0,
        "resolutions": resolutions,
        "locate_hops": hops,
        "messages_per_resolution": (messages / resolutions) if resolutions else 0.0,
        "queue_wait": asdict(wait),
        "fast_release_ratio": (released / (released + expired)) if released + expired else 0.0,
        "evictions": m.counter_total("evict_hidden_total"),
        "corrections": m.counter_total("cache_corrections_total"),
        # Fault-tolerance roll-ups: manager failovers clients performed,
        # standby adoptions subordinates performed, messages the chaos
        # layer ate.  All zero in a healthy, chaos-free run.
        "failovers": m.counter_total("failovers_total"),
        "rehomes": m.counter_total("rehomes_total"),
        "chaos_msgs_dropped": m.counter_total("chaos_msgs_dropped_total"),
    }


def snapshot(
    obs: Observability, *, traces: bool = True, extra: dict | None = None
) -> dict[str, Any]:
    """Freeze the hub's current state into one JSON-serializable dict."""
    metrics = []
    for kind, name, labels, value in obs.metrics.collect():
        entry: dict[str, Any] = {"kind": kind, "name": name, "labels": labels}
        if kind == "histogram":
            entry["summary"] = asdict(value.summary())
        else:
            entry["value"] = value
        metrics.append(entry)
    snap: dict[str, Any] = {
        "schema": SCHEMA,
        "time": obs.now(),
        "metrics": metrics,
        "derived": derive(obs),
    }
    if traces:
        snap["traces"] = [t.to_dict() for t in obs.tracer.finished]
        snap["events"] = [dict(e) for e in obs.tracer.cluster_events]
    if extra:
        snap["extra"] = dict(extra)
    return snap


def to_json(snap: dict[str, Any]) -> str:
    # allow_nan=False: a snapshot that cannot round-trip through a strict
    # parser is a bug here, not in the consumer.
    return json.dumps(snap, indent=2, sort_keys=True, allow_nan=False)


def write(snap: dict[str, Any], path: str | pathlib.Path) -> pathlib.Path:
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(to_json(snap) + "\n")
    return out


def load(path: str | pathlib.Path) -> dict[str, Any]:
    return json.loads(pathlib.Path(path).read_text())
