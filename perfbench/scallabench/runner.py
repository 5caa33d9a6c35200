"""Run one workload and turn its outcome into the reported metrics.

Two modes, never mixed in one process run:

* :func:`run_untraced` — the end-to-end metrics, no wrappers anywhere;
* :func:`run_traced` — the per-layer metrics.  It drives replica 0's core
  rounds twice from the same seed, first untraced and then under the
  :class:`~.layers.Tracer`; the two runs must agree count for count (the
  wrappers perturb nothing), and their host-time gap is the tracing
  overhead.
"""

from __future__ import annotations

import gc
import json
import resource
from dataclasses import dataclass, field
from pathlib import Path

from .layers import TIMED, Tracer, delta
from .stats import MIN_TAIL, median, percentile
from .workloads import Recorder, Workload

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "Outcome", "run_untraced", "run_traced"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: "host": what the Python program costs on this machine (noisy);
    #: "sim": what the modelled cluster's users see (exact for a seed).
    kind: str
    #: End-to-end only: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float | None = None


END_TO_END = (
    Metric("ops_per_s", "ops/s", "higher", "host", 0.25),
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", "host", 0.1),
    Metric("meta_p50_us", "us", "lower", "sim", 0.1),
    Metric("open_p50_us", "us", "lower", "sim", 0.05),
    Metric("open_p99_us", "us", "lower", "sim", 0.2),
)

PER_LAYER = (
    Metric("kernel.events_per_op", "count", "lower", "sim"),
    Metric("kernel.self_us_per_op", "us", "lower", "host"),
    Metric("kernel.ns_per_event", "ns", "lower", "host"),
    Metric("network.msgs_per_op", "count", "lower", "sim"),
    Metric("network.bytes_per_op", "B", "lower", "sim"),
    Metric("network.self_us_per_msg", "us", "lower", "host"),
    Metric("network.dropped_frac", "ratio", "lower", "sim"),
    Metric("cmsd.msgs_handled_per_op", "count", "lower", "sim"),
    Metric("cmsd.self_us_per_msg", "us", "lower", "host"),
    Metric("cmsd.queries_per_op", "count", "lower", "sim"),
    Metric("cmsd.redirects_per_op", "count", "lower", "sim"),
    Metric("cmsd.waits_per_op", "count", "lower", "sim"),
    Metric("cache.lookups_per_op", "count", "lower", "sim"),
    Metric("cache.hit_ratio", "ratio", "higher", "sim"),
    Metric("cache.self_us_per_lookup", "us", "lower", "host"),
    Metric("cache.corrections_per_lookup", "ratio", "lower", "sim"),
    Metric("rq.waiters_per_op", "count", "lower", "sim"),
    Metric("rq.fast_release_ratio", "ratio", "higher", "sim"),
    Metric("rq.rejected", "count", "lower", "sim"),
    Metric("rq.self_us_per_op", "us", "lower", "host"),
    Metric("membership.events", "count", "lower", "sim"),
    Metric("membership.self_us", "us", "lower", "host"),
    Metric("client.redirects_per_op", "count", "lower", "sim"),
    Metric("client.waits_per_op", "count", "lower", "sim"),
    Metric("client.refreshes_per_op", "count", "lower", "sim"),
    Metric("client.failovers_per_op", "count", "lower", "sim"),
    Metric("client.retried_frac", "ratio", "lower", "sim"),
    Metric("xrootd.requests_per_op", "count", "lower", "sim"),
    Metric("xrootd.open_fail_frac", "ratio", "lower", "sim"),
    Metric("fs.self_us_per_op", "us", "lower", "host"),
    Metric("setup.build_s", "s", "lower", "host"),
    Metric("setup.populate_s", "s", "lower", "host"),
    Metric("setup.warm_s", "s", "lower", "host"),
    Metric("trace.overhead_frac", "ratio", "lower", "host"),
)


@dataclass
class Outcome:
    """What one run reports: the contract's JSON plus a human report."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    violations: list[str]
    #: Extra facts for the human-readable report (sample counts, ...).
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.violations


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _us(samples, q: float) -> float:
    return percentile(samples, q) * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _core_rounds(wl: Workload, rep, rec: Recorder) -> tuple[float, dict[str, int]]:
    """Drive *rep*'s core rounds; return (host seconds, counter deltas)."""
    gc.collect()
    before = rep.counts()
    seconds = sum(wl.run_round(rep, rec, k) for k in range(wl.rounds))
    return seconds, delta(rep.counts(), before)


def run_untraced(wl: Workload, seed: int, seconds: float) -> Outcome:
    """The core replicas, then extension replicas until the measured host
    time reaches *seconds*; returns the end-to-end metrics.

    Extension replicas are fresh clusters rather than more rounds on the
    last one, so every round starts from the same kind of state (churn
    left behind by one round would otherwise pile up in the next).
    """
    core, extra = Recorder(), Recorder()
    setups: list[float] = []
    measured = 0.0
    r = 0
    while r < wl.replicas or measured < seconds:
        rec = core if r < wl.replicas else extra
        rep = wl.build(seed, r)
        setups.append(rep.setup_reference_s)
        spent, counts = _core_rounds(wl, rep, rec)
        measured += spent
        wl.verify_round(rep, rec)
        wl.verify_counts(rep, rec, counts)
        wl.verify_created(rep, rec)
        del rep
        gc.collect()
        r += 1
    lat = core.latencies()
    metrics = {
        "ops_per_s": median(core.round_rates + extra.round_rates),
        "setup_s": median(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "meta_p50_us": _us(lat["meta"], 0.5),
        "open_p50_us": _us(lat["open"], 0.5),
        "open_p99_us": _us(lat["open"], 0.99),
    }
    notes: dict[str, object] = {
        "samples": {k: len(v) for k, v in lat.items()},
        "measured_s": measured,
        "unscaled_ops_per_s": (core.attempted + extra.attempted) / measured,
        "round_ops_per_s": core.round_rates + extra.round_rates,
        "replicas": len(setups),
        "core_ops": core.attempted,
        "extension_ops": extra.attempted,
        "fail_frac": _ratio(core.failed + extra.failed, core.attempted + extra.attempted),
        "retried_frac": _ratio(core.retried, core.attempted),
        "setups_s": setups,
    }
    # Not metrics: create latency exists only where creates happen
    # (cold-create), and the stat p90 of elastic-churn sits on the edge of
    # its re-query regime, so it jumps between seeds.
    notes["meta_p90_us"] = _us(lat["meta"], 0.9)
    if len(lat["create"]) > MIN_TAIL * 10:
        notes["create_p50_us"] = _us(lat["create"], 0.5)
        notes["create_p90_us"] = _us(lat["create"], 0.9)
    return Outcome(
        attempted=core.attempted + extra.attempted,
        failed=core.failed + extra.failed,
        metrics=metrics,
        violations=core.violations + extra.violations,
        notes=notes,
    )


def run_traced(wl: Workload, seed: int, out_dir: Path | None = None) -> Outcome:
    """Replica 0's core rounds untraced, then again traced; per-layer metrics."""
    rep = wl.build(seed, 0)
    setup = dict(rep.setup)
    plain = Recorder()
    wall_plain, counts_plain = _core_rounds(wl, rep, plain)
    wl.verify_round(rep, plain)
    wl.verify_counts(rep, plain, counts_plain)
    wl.verify_created(rep, plain)
    del rep
    gc.collect()

    rep = wl.build(seed, 0)
    traced = Recorder()
    with Tracer() as tracer:
        wall, counts = _core_rounds(wl, rep, traced)
    # The deferred checks read ServerFS, so they run after the wrappers
    # are gone and cost the fs layer nothing.
    wl.verify_round(rep, traced)
    wl.verify_counts(rep, traced, counts)
    wl.verify_created(rep, traced)

    violations = plain.violations + traced.violations
    if counts != counts_plain:
        diff = {k: (counts_plain.get(k), v) for k, v in counts.items() if counts_plain.get(k) != v}
        violations.append(f"traced run's counts differ from the untraced run's: {diff}")
    if traced.latencies() != plain.latencies() or traced.failed != plain.failed:
        violations.append("traced run's simulated latencies differ from the untraced run's")

    ops = traced.attempted
    wall_ns = wall * 1e9
    self_ns = {layer: tracer.self_ns(layer) for layer in TIMED}
    kernel_ns = wall_ns - sum(self_ns.values())
    d = counts
    waiters = d["rq.fast_responses"] + d["rq.timeouts"]
    metrics = {
        "kernel.events_per_op": d["kernel.events"] / ops,
        "kernel.self_us_per_op": kernel_ns / 1e3 / ops,
        "kernel.ns_per_event": _ratio(kernel_ns, d["kernel.events"]),
        "network.msgs_per_op": d["network.sent"] / ops,
        "network.bytes_per_op": d["network.bytes"] / ops,
        "network.self_us_per_msg": _ratio(self_ns["network"] / 1e3, tracer.calls("network")),
        "network.dropped_frac": _ratio(d["network.dropped"], d["network.sent"]),
        "cmsd.msgs_handled_per_op": tracer.calls("cmsd") / ops,
        "cmsd.self_us_per_msg": _ratio(self_ns["cmsd"] / 1e3, tracer.calls("cmsd")),
        "cmsd.queries_per_op": d["cmsd.queries_sent"] / ops,
        "cmsd.redirects_per_op": d["cmsd.redirects"] / ops,
        "cmsd.waits_per_op": d["cmsd.waits_sent"] / ops,
        "cache.lookups_per_op": d["cache.lookups"] / ops,
        "cache.hit_ratio": _ratio(d["cache.hits"], d["cache.lookups"]),
        "cache.self_us_per_lookup": _ratio(self_ns["cache"] / 1e3, d["cache.lookups"]),
        "cache.corrections_per_lookup": _ratio(d["cache.corrections"], d["cache.lookups"]),
        "rq.waiters_per_op": waiters / ops,
        "rq.fast_release_ratio": _ratio(d["rq.fast_responses"], waiters),
        "rq.rejected": d["rq.rejected"],
        "rq.self_us_per_op": self_ns["rq"] / 1e3 / ops,
        "membership.events": tracer.calls("membership"),
        "membership.self_us": self_ns["membership"] / 1e3,
        "client.redirects_per_op": d["client.redirects"] / ops,
        "client.waits_per_op": d["client.waits"] / ops,
        "client.refreshes_per_op": d["client.refreshes"] / ops,
        "client.failovers_per_op": d["client.failovers"] / ops,
        "client.retried_frac": traced.retried / ops,
        "xrootd.requests_per_op": tracer.calls("xrootd") / ops,
        "xrootd.open_fail_frac": _ratio(d["xrootd.open_failures"], d["xrootd.opens"]),
        "fs.self_us_per_op": self_ns["fs"] / 1e3 / ops,
        "setup.build_s": setup["build"],
        "setup.populate_s": setup["populate"],
        "setup.warm_s": setup["warm"],
        "trace.overhead_frac": 1.0 - wall_plain / wall,
    }
    layers = {
        layer: {
            "self_s": self_ns[layer] / 1e9,
            "share": self_ns[layer] / wall_ns,
            "calls": tracer.calls(layer),
        }
        for layer in TIMED
    }
    layers["kernel (remainder)"] = {
        "self_s": kernel_ns / 1e9,
        "share": kernel_ns / wall_ns,
        "events": d["kernel.events"],
    }
    artifact = {
        "workload": wl.name,
        "seed": seed,
        "ops": ops,
        "traced_wall_s": wall,
        "untraced_wall_s": wall_plain,
        "untraced_ops_per_s": ops / wall_plain,
        "traced_ops_per_s": ops / wall,
        "tracing_overhead_frac": metrics["trace.overhead_frac"],
        "layers": layers,
        "accounted_s": sum(v["self_s"] for v in layers.values()),
        "xrootd_requests": tracer.calls("xrootd"),
        "counts": counts,
        "counts_match_untraced": counts == counts_plain,
        "setup_s": setup,
        "metrics": metrics,
    }
    notes: dict[str, object] = {
        "layers": layers,
        "traced_wall_s": wall,
        "untraced_wall_s": wall_plain,
        "tracing_overhead_frac": metrics["trace.overhead_frac"],
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{wl.name}-seed{seed}.json"
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
        notes["artifact"] = str(path)
    return Outcome(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        metrics=metrics,
        violations=violations,
        notes=notes,
    )
