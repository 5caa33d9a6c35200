"""The determinism harness: identical seeds yield identical event streams."""

import copy

from repro.analysis.determinism import SendLog, diff_snapshots, run_workload, send_log_digest
from repro.sim.kernel import Simulator
from repro.sim.latency import Uniform
from repro.sim.network import Network

# Small workload: enough to exercise cache, queue, flooding, churn, and
# eviction ticks while keeping the suite fast.
SMALL = dict(n_servers=6, fanout=6, files=10, lookups=16, misses=2)


class TestSameSeed:
    def test_two_runs_identical_and_sanitize_is_pure(self):
        """One assertion, two claims: same seed → same stream, and SimSan
        sweeps (on in run two only) change nothing observable."""
        a = run_workload(seed=51, **SMALL)
        b = run_workload(seed=51, sanitize=True, **SMALL)
        assert diff_snapshots(a, b) == []
        # The workload must have actually done something worth comparing.
        assert a["extra"]["resolved"] == SMALL["lookups"]
        assert a["extra"]["notfound"] == SMALL["misses"]
        assert a["traces"]

    def test_different_seeds_diverge(self):
        """Sanity check on the harness itself: it can tell runs apart."""
        a = run_workload(seed=51, **SMALL)
        b = run_workload(seed=52, **SMALL)
        assert diff_snapshots(a, b) != []


class TestSendLog:
    def test_observability_moves_no_message(self):
        """Without observability, server cmsds are silent leaves whose
        unanswered queries stay on the wire; the messages sent are the
        same, also when reads choose among three replicas."""
        for copies in (1, 3):
            on = send_log_digest(51, observability=True, copies=copies, **SMALL)
            off = send_log_digest(51, observability=False, copies=copies, **SMALL)
            assert on == off
            assert on[0] > 0

    def test_different_seeds_diverge(self):
        assert send_log_digest(51, **SMALL) != send_log_digest(52, **SMALL)

    def test_a_flood_hashes_as_its_copies_sent_one_by_one(self):
        names = ("h0", "h1", "h2")
        logs = []
        for flood in (True, False):
            sim = Simulator()
            net = Network(sim, default_latency=Uniform(8e-6, 12e-6))
            for name in ("src", *names):
                net.add_host(name)
            log = SendLog()
            log.attach(net)
            for i in range(3):
                if flood:
                    net.send("src", names, f"q{i}", size=30)
                else:
                    for name in names:
                        net.send("src", name, f"q{i}", size=30)
                net.send("h1", "src", f"reply{i}", size=10)
                sim.run(until=sim.now + 5e-6)
            logs.append((log.sends, log.digest.hexdigest()))
        assert logs[0] == logs[1]
        assert logs[0][0] == 12


class TestDiff:
    def test_doctored_metric_is_pinpointed(self):
        a = run_workload(seed=51, **SMALL)
        b = copy.deepcopy(a)
        for entry in b["metrics"]:
            if entry["name"] == "cache_lookups_total":
                entry["value"] += 1
                break
        diffs = diff_snapshots(a, b)
        assert diffs
        assert any("line" in d for d in diffs)

    def test_diff_is_truncated(self):
        a = run_workload(seed=51, **SMALL)
        b = run_workload(seed=53, **SMALL)
        diffs = diff_snapshots(a, b, limit=3)
        assert len(diffs) <= 4  # 3 diffs + the truncation marker
