"""Stress integration: a full analysis campaign at §II-A scale.

The paper's motivating requirement — "sustain thousands of transactions per
second" from "a thousand or more simultaneous analysis jobs" — as one
asserted test: a 64-server cluster, 1,000-file dataset, 300 concurrent jobs
with Zipf-popular file selections.  Everything must finish, every read must
land on a genuine holder, and the manager's cache arithmetic must balance.
"""

import random

import pytest

from repro.cluster import ScallaCluster, ScallaConfig
from repro.workloads.jobs import JobSpec, run_job
from repro.workloads.namegen import hep_paths
from repro.workloads.popularity import ZipfChooser

N_SERVERS = 64
N_FILES = 1_000
N_JOBS = 300
FILES_PER_JOB = 10


@pytest.fixture(scope="module")
def campaign():
    rng = random.Random(77)
    cluster = ScallaCluster(N_SERVERS, config=ScallaConfig(seed=77))
    dataset = hep_paths(N_FILES, rng=rng)
    cluster.populate(dataset, copies=2, size=16 * 1024)
    cluster.settle()
    chooser = ZipfChooser(dataset, s=1.1)
    results = []

    def run():
        procs = []
        for j in range(N_JOBS):
            files = tuple({chooser.choose(rng) for _ in range(FILES_PER_JOB)})
            client = cluster.client(f"job{j:04d}")
            delay = rng.uniform(0.0, 3.0)

            def job(client=client, files=files, delay=delay):
                yield cluster.sim.timeout(delay)
                results.append((yield from run_job(client, JobSpec(files=files))))

            procs.append(cluster.sim.process(job()))
        yield cluster.sim.all_of(procs)

    cluster.run_process(run(), limit=600)
    return cluster, results


class TestCampaign:
    def test_every_job_finishes_cleanly(self, campaign):
        _cluster, results = campaign
        assert len(results) == N_JOBS
        assert sum(r.failures for r in results) == 0

    def test_sustained_transaction_rate(self, campaign):
        """The §II-A requirement: thousands of metadata transactions/s."""
        _cluster, results = campaign
        total_md = sum(r.metadata_ops for r in results)
        span = max(r.finished_at for r in results) - min(r.started_at for r in results)
        assert total_md / span > 1_000

    def test_latency_stays_low_under_campaign_load(self, campaign):
        _cluster, results = campaign
        opens = sorted(v for r in results for v in r.open_latencies)
        p95 = opens[int(len(opens) * 0.95)]
        assert p95 < 1e-3  # sub-millisecond p95 open latency

    def test_manager_cache_accounting_balances(self, campaign):
        cluster, _results = campaign
        mgr = cluster.manager_cmsd()
        stats = mgr.cache.stats
        assert stats.lookups == stats.hits + stats.adds + (
            stats.lookups - stats.hits - stats.adds
        )
        # The hit rate must be high under Zipf popularity.
        assert stats.hits / stats.lookups > 0.5
        # The cache only tracks requested names, never the whole namespace.
        assert mgr.cache.live_count() <= N_FILES
        mgr.cache.check_invariants()

    def test_request_rarely_respond_economy(self, campaign):
        """Across the whole campaign, responses stay a small fraction of
        queries: most servers stay silent for most files (2 holders / 64)."""
        cluster, _results = campaign
        mgr = cluster.manager_cmsd()
        assert mgr.stats.haves_received < mgr.stats.queries_sent * 0.2

    def test_all_reads_landed_on_holders(self, campaign):
        """Spot-check the invariant behind every redirect: the chosen node
        really has the file."""
        cluster, _results = campaign
        rng = random.Random(5)
        mgr = cluster.manager_cmsd()
        for _ in range(50):
            # Sample a cached object and verify every V_h holder is real.
            visible = list(mgr.cache.table.visible())
            obj = rng.choice(visible)
            from repro.core import bitvec

            for slot in bitvec.iter_bits(obj.v_h):
                name = mgr.membership.slots[slot].name
                assert cluster.node(name).fs.exists(obj.key), (
                    f"{name} advertised for {obj.key} but lacks it"
                )
