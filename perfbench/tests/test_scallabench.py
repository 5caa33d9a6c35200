"""Tests for the benchmark's own code (run: python3 -m pytest perfbench/tests -q).

The workloads run here at toy sizes; the determinism tests compare two
runs of the same seed, in one process and across processes with different
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from repro.cluster.cmsd import Cmsd  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from scallabench import inputs  # noqa: E402
from scallabench.layers import COUNTED, TIMED, Tracer  # noqa: E402
from scallabench.runner import END_TO_END, PER_LAYER, _core_rounds, run_traced  # noqa: E402
from scallabench.stats import MIN_TAIL, NAME_RE, percentile  # noqa: E402
from scallabench.workloads import (  # noqa: E402
    WORKLOADS,
    ColdCreate,
    ElasticChurn,
    HotJobs,
    Recorder,
)

SMALL = {
    "hot-jobs": HotJobs(servers=256, names=400, jobs_per_round=12, rounds=2, replicas=1),
    "cold-create": ColdCreate(servers=64, pool=100, ops_per_round=20, rounds=2, replicas=1),
    "elastic-churn": ElasticChurn(servers=128, names=400, ops_per_round=60, replicas=1),
}


def _run_small(name: str, seed: int) -> dict:
    wl = SMALL[name]
    rep = wl.build(seed, 0)
    rec = Recorder()
    _seconds, counts = _core_rounds(wl, rep, rec)
    wl.verify_round(rep, rec)
    wl.verify_counts(rep, rec, counts)
    wl.verify_created(rep, rec)
    return {
        "latencies": rec.latencies(),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "retried": rec.retried,
        "counts": counts,
        "violations": rec.violations,
    }


# -- generators -------------------------------------------------------------------


def _inputs(seed: int) -> dict:
    rng = inputs.rng_for("w", seed, "replica", 0)
    names = inputs.hep_names(rng, 50)
    zipf = inputs.Zipf(names, 0.9)
    stream = inputs.name_stream(rng, experiment="cms")
    return {
        "names": names,
        "jobs": inputs.job_round(rng, zipf, jobs=10, rate=100.0, files=4),
        "mixed": inputs.mixed_round(
            rng,
            ops=20,
            rate=50.0,
            mix=(("read", 0.5), ("stat", 0.25), ("create", 0.25)),
            pick=lambda kind: next(stream),
        ),
        "waves": inputs.churn_waves(
            rng,
            window=5.0,
            servers=[f"s{i}" for i in range(40)],
            supervisors=["a", "b"],
            fraction=0.05,
            first=(0.1, 0.3),
            period=(0.6, 1.0),
            downtime=(0.5, 1.5),
        ),
    }


def test_generators_are_deterministic_per_seed():
    assert _inputs(7) == _inputs(7)


def test_generators_differ_across_seeds():
    a, b = _inputs(7), _inputs(8)
    for key in a:
        assert a[key] != b[key], key


def test_mixed_round_gives_exact_shares():
    rng = inputs.rng_for("w", 1)
    ops = inputs.mixed_round(
        rng, ops=100, rate=10.0, mix=(("read", 0.7), ("stat", 0.1), ("create", 0.2)),
        pick=lambda kind: kind,
    )
    kinds = [k for _, k, _ in ops]
    assert (kinds.count("read"), kinds.count("stat"), kinds.count("create")) == (70, 10, 20)


def test_workload_round_inputs_depend_only_on_seed():
    for name, wl in SMALL.items():
        first = wl.round_inputs(wl.build(3, 0), 0)
        again = wl.round_inputs(wl.build(3, 0), 0)
        other = wl.round_inputs(wl.build(4, 0), 0)
        assert first == again, name
        assert first != other, name


# -- percentiles and names --------------------------------------------------------


def test_percentile_refuses_a_thin_tail():
    assert MIN_TAIL == 10
    with pytest.raises(ValueError):
        percentile(list(range(999)), 0.99)  # rank 990 leaves 9 beyond it
    with pytest.raises(ValueError):
        percentile(list(range(50)), 0.9)
    assert percentile(list(range(1, 1001)), 0.99) == 990  # exactly MIN_TAIL beyond
    assert percentile(list(range(1, 101)), 0.5) == 50


def test_every_name_is_well_formed():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


# -- tracing -------------------------------------------------------------------------


def _originals():
    return {
        (cls, name): cls.__dict__[name]
        for cls, names in list(TIMED.values()) + list(COUNTED.values())
        for name in names
    }


def test_wrappers_restore_the_original_methods():
    before = _originals()
    with Tracer():
        assert Network.__dict__["send"] is not before[(Network, "send")]
        assert Cmsd.__dict__["_dispatch"] is not before[(Cmsd, "_dispatch")]
    assert _originals() == before


def test_wrappers_are_restored_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert _originals() == before


def test_self_time_excludes_nested_layers():
    class Outer:
        def f(self, inner):
            return inner.g()

    class Inner:
        def g(self):
            return sum(range(20000))

    f, g = Outer.__dict__["f"], Inner.__dict__["g"]
    tracer = Tracer()
    tracer._swap(Outer, "f", tracer._timed("network", f))
    tracer._swap(Inner, "g", tracer._timed("cmsd", g))
    try:
        for _ in range(20):
            Outer().f(Inner())
    finally:
        tracer.remove()
    assert Outer.__dict__["f"] is f and Inner.__dict__["g"] is g
    # The outer self time is its call overhead only: far below the inner sum.
    assert tracer.self_ns("network") < tracer.self_ns("cmsd")
    assert tracer.calls("network") == tracer.calls("cmsd") == 20


# -- workloads: correctness and determinism --------------------------------------------


@pytest.mark.parametrize("name", list(SMALL))
def test_small_workload_is_correct_and_repeatable(name):
    first = _run_small(name, 5)
    assert first["violations"] == []
    assert first["failed"] == 0
    assert first["attempted"] > 0
    assert first == _run_small(name, 5)


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_run_matches_untraced_counts(name):
    before = _originals()
    outcome = run_traced(SMALL[name], 2)
    assert outcome.violations == []
    assert set(outcome.metrics) == {m.name for m in PER_LAYER}
    assert _originals() == before
    layers = outcome.notes["layers"]
    assert all(layer in layers for layer in TIMED)
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(
        outcome.notes["traced_wall_s"]
    )


def test_same_seed_repeats_across_processes():
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3];"
        "from test_scallabench import _run_small;"
        "print(json.dumps(_run_small('cold-create', 9), sort_keys=True))"
    )
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        done = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent), str(ROOT / "src")],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
            check=True,
        )
        outs.append(done.stdout.strip().splitlines()[-1])
    assert outs[0] == outs[1]
