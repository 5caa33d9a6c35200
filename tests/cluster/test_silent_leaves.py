"""Silent leaves cost no events: record-served QueryFiles must not change
anything observable.

A server cmsd with an observability hub serves every copy eagerly, one
without keeps the copies it will not answer as records (see
``repro.cluster.cmsd``).  Observability only adds traces and metrics, so
the same script run with and without it is an oracle: every message sent,
every counter and every result must match.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cluster import protocol as pr
from repro.cluster.client import ClientConfig, ScallaError
from repro.cluster.cmsd import Cmsd
from repro.cluster.ids import NodeId, Role, cmsd_host
from repro.cluster.fs import ServerFS
from repro.cluster.scalla import ScallaCluster, ScallaConfig
from repro.cluster.xrootd import XrootdServer
from repro.obs import Observability
from repro.sim import ChaosConfig
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed, Uniform
from repro.sim.network import Network


@pytest.fixture
def send_log(monkeypatch):
    """Every Network.send as (time, src, dst, payload, size)."""
    log = []
    send = Network.send

    def logged(self, src, dst, payload, *, size=0):
        log.append((self.sim.now, src, dst, repr(payload), size))
        return send(self, src, dst, payload, size=size)

    monkeypatch.setattr(Network, "send", logged)
    return log


@pytest.fixture
def hand_offs(monkeypatch):
    """How often a leaf gave its records back to the eager path."""
    count = [0]
    hand_off = Cmsd._hand_off

    def counted(self):
        count[0] += 1
        hand_off(self)

    monkeypatch.setattr(Cmsd, "_hand_off", counted)
    return count


def _outcome(cluster, gen, limit):
    try:
        return repr(cluster.run_process(gen, limit=cluster.sim.now + limit))
    except ScallaError as err:
        return type(err).__name__


def flood_script(observability: bool, *, jitter: bool = False, chaos: bool = False):
    """Misses, stats of missing files, creates and a prepare, with creates,
    a leaf crash, a supervisor isolation and a one-way partition landing
    while floods are in flight or in service.  Returns everything a run
    can be compared on."""
    lan = Uniform(8e-6, 12e-6) if jitter else Fixed(10e-6)
    config = ScallaConfig(
        seed=11,
        fanout=6,  # 24 servers: 4 supervisors under the manager
        observability=observability,
        full_delay=0.5,
        stage_latency=Fixed(0.05),
        network_latency=lan,
        server_service=Uniform(64e-6, 96e-6) if jitter else Fixed(80e-6),
        chaos=(
            ChaosConfig(drop_prob=0.02, dup_prob=0.1, delay_spike_prob=0.1,
                        delay_spike=2e-4, seed=3)
            if chaos
            else None
        ),
        client=ClientConfig(locate_timeout=0.6, op_timeout=0.6),
    )
    cluster = ScallaCluster(24, config=config)
    sim, net = cluster.sim, cluster.network
    servers = cluster.servers
    cluster.populate([f"/store/f{i}.root" for i in range(20)], copies=2)
    cluster.archive("/store/tape/t0.root", servers[3], size=2048)
    cluster.settle(0.5)
    client = cluster.client("c0")
    rivals = [cluster.client(f"r{i}") for i in range(3)]
    results = []

    def at(delay, fn):
        sim.call_at(sim.now + delay, lambda _arg: fn(), None)

    # Misses and stats of missing files: pure floods, every copy silent.
    for i in range(3):
        results.append(_outcome(cluster, client.locate(f"/store/miss/m{i}.root"), 5))
        results.append(_outcome(cluster, client.stat(f"/store/miss/s{i}.root"), 5))
    # Creates: the flood finds nothing, then a server gains the file.
    for i in range(2):
        path = f"/store/new/c{i}.root"
        results.append(_outcome(cluster, client.open(path, mode="w", create=True), 5))
    # A prepare floods many paths at once, some on disk, one on tape.
    results.append(
        _outcome(
            cluster,
            client.prepare(["/store/f3.root", "/store/tape/t0.root"]
                           + [f"/store/miss/p{i}.root" for i in range(6)]),
            5,
        )
    )
    cluster.run(until=sim.now + 1.0)
    # Files created while the flood for them is on the wire (+35 us) or
    # being served (+60, +95 us), plus two concurrent misses behind them.
    for k, delay in enumerate((35e-6, 60e-6, 95e-6)):
        path = f"/store/race/r{k}.root"
        at(delay, lambda p=path, s=servers[5 * k + 1]: cluster.place(p, s))
        procs = [sim.process(client.locate(path))]
        procs += [sim.process(r.locate(f"/store/race/miss{k}-{j}.root"))
                  for j, r in enumerate(rivals[:2])]
        cluster.run(until=sim.now + 2.0)
        results.append([p.ok and repr(p.value) for p in procs])
    # A leaf crashes with a query in flight to it, another with one in
    # service, a third host dies under a running cmsd; a supervisor is
    # isolated and a one-way cut opens mid-flood.
    sup = cluster.topology.supervisors[1]
    leaf = cluster.topology.nodes[sup].children[2]
    at(35e-6, cluster.node(servers[0]).crash)
    at(60e-6, cluster.node(servers[7]).crash)
    at(35e-6, lambda: net.kill(cmsd_host(servers[12])))
    at(35e-6, lambda: net.isolate(cmsd_host(sup)))
    at(35e-6, lambda: net.partition_oneway(cmsd_host(sup), cmsd_host(leaf)))
    procs = [sim.process(c.locate(f"/store/miss/x{j}.root"))
             for j, c in enumerate([client] + rivals)]
    cluster.run(until=sim.now + 1.5)
    results.append([p.ok for p in procs])
    net.unisolate(cmsd_host(sup))
    net.heal_oneway(cmsd_host(sup), cmsd_host(leaf))
    net.revive(cmsd_host(servers[12]))
    cluster.node(servers[0]).restart()
    cluster.node(servers[7]).restart()
    cluster.run(until=sim.now + 2.0)
    for i in range(4):
        results.append(_outcome(cluster, rivals[2].locate(f"/store/f{i}.root"), 5))
        results.append(_outcome(cluster, rivals[2].locate(f"/store/after/a{i}.root"), 5))
    results.append(_outcome(cluster, client.fetch("/store/tape/t0.root"), 5))
    cluster.run(until=sim.now + 1.0)

    cmsd_stats = {
        name: dataclasses.asdict(node.cmsd.stats) for name, node in cluster.nodes.items()
    }
    clients = [dataclasses.asdict(c.stats) for c in [client] + rivals]
    return {
        "network": dataclasses.asdict(net.stats),
        "cmsd": cmsd_stats,
        "clients": clients,
        "results": results,
        "now": sim.now,
    }


@pytest.mark.parametrize(
    "jitter, chaos", [(False, False), (True, False), (True, True), (False, True)]
)
def test_silent_leaves_change_nothing_observable(send_log, hand_offs, jitter, chaos):
    eager = flood_script(True, jitter=jitter, chaos=chaos)
    eager_log = list(send_log)
    assert hand_offs[0] == 0  # every leaf with a hub is eager
    send_log.clear()
    lazy = flood_script(False, jitter=jitter, chaos=chaos)
    assert hand_offs[0] > 0  # the script does reach the hand-off paths
    assert send_log == eager_log
    assert lazy == eager


# -- unit tests ---------------------------------------------------------------


def leaf_rig(*, obs=None):
    """One server cmsd and a bare 'parent' host that sends it queries."""
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(10e-6), rng=random.Random(1))
    parent = net.add_host("sup.cmsd")
    replies = []
    parent.listen(lambda src, msg, sent_at: replies.append((sim.now, msg)))
    node = NodeId("srv0", Role.SERVER)
    fs = ServerFS()
    xrootd = XrootdServer(sim, net, node, fs)
    config = ScallaConfig(server_service=Fixed(80e-6), sanitize=False)
    cmsd = Cmsd(sim, net, node, xrootd=xrootd, config=config, obs=obs)
    cmsd.start()
    return sim, net, cmsd, fs, replies


def query(path: str, serial: int = 1) -> pr.QueryFile:
    return pr.QueryFile(path=path, hash_val=0, mode="r", serial=serial)


class TestRecords:
    def test_silent_copy_adds_no_heap_entry(self):
        sim, net, cmsd, fs, _ = leaf_rig()
        depth, seq = len(sim._heap), sim._seq
        assert net.send("sup.cmsd", cmsd.host.name, query("/store/none"))
        assert len(sim._heap) == depth
        assert sim._seq == seq + 1  # the copy's slot is reserved all the same
        assert len(cmsd._box.records) == 1

    def test_answerable_copy_is_delivered_eagerly(self):
        sim, net, cmsd, fs, replies = leaf_rig()
        fs.put("/store/here", b"x")
        depth = len(sim._heap)
        net.send("sup.cmsd", cmsd.host.name, query("/store/here"))
        assert len(sim._heap) == depth + 1
        assert cmsd._box is None  # never took a record
        sim.run(until=1e-3)
        assert [type(m) for _, m in replies] == [pr.HaveFile]

    def test_stats_exact_right_after_run_until(self):
        sim, net, cmsd, fs, _ = leaf_rig()
        net.send("sup.cmsd", cmsd.host.name, query("/store/none"))
        sim.run(until=9e-6)
        assert net.stats.delivered == 0
        sim.run(until=10e-6)  # the arrival instant itself counts
        assert net.stats.delivered == 1
        assert net.stats.sent == 1

    def test_file_created_in_flight_answers_at_the_eager_instant(self):
        # Reference: the same query to a leaf with a hub, served eagerly.
        times = []
        for obs in (Observability(), None):
            sim, net, cmsd, fs, replies = leaf_rig(obs=obs)
            net.send("sup.cmsd", cmsd.host.name, query("/store/late"))
            # Arrives at 10 us, service ends at 90 us: create at 50 us.
            sim.call_at(50e-6, lambda _a, fs=fs: fs.put("/store/late", b"y"), None)
            sim.run(until=1e-3)
            assert [type(m) for _, m in replies] == [pr.HaveFile]
            times.append(replies[0][0])
        assert times[0] == times[1] == pytest.approx(100e-6)

    def test_file_created_before_arrival_answers_too(self):
        sim, net, cmsd, fs, replies = leaf_rig()
        net.send("sup.cmsd", cmsd.host.name, query("/store/early"))
        sim.call_at(5e-6, lambda _a: fs.put("/store/early", b"y"), None)
        sim.run(until=1e-3)
        assert [(t, type(m)) for t, m in replies] == [(pytest.approx(100e-6), pr.HaveFile)]

    def test_records_never_exceed_copies_in_flight(self, monkeypatch):
        peak = [0]
        arrivals = []
        offer = Cmsd._offer

        def checked(self, src, msg, arrival, seq, sent_at):
            arrivals.append((arrival, seq))
            took = offer(self, src, msg, arrival, seq, sent_at)
            # Right after an offer every record is still on the wire.
            in_flight = [a for a in arrivals if not self.sim.passed(*a)]
            assert sorted(r[:2] for r in self._box.records) == in_flight
            peak[0] = max(peak[0], len(self._box.records))
            return took

        monkeypatch.setattr(Cmsd, "_offer", checked)
        sim, net, cmsd, fs, _ = leaf_rig()
        rng = random.Random(4)
        for i in range(200):
            net.send("sup.cmsd", cmsd.host.name, query(f"/store/n{i}", i))
            sim.run(until=sim.now + rng.choice((0.0, 3e-6, 40e-6, 200e-6)))
        sim.run(until=sim.now + 1e-3)
        assert peak[0] > 1
        assert net.stats.delivered == 200

    def test_stop_drops_arrived_records_and_delivers_the_rest(self):
        sim, net, cmsd, fs, _ = leaf_rig()
        net.send("sup.cmsd", cmsd.host.name, query("/store/a"))
        sim.run(until=20e-6)
        net.send("sup.cmsd", cmsd.host.name, query("/store/b"))
        cmsd.stop()
        assert not cmsd._box.records and cmsd._box.item is None
        sim.run(until=1e-3)
        assert net.stats.delivered == 2  # the second reached a closed port

    def test_storage_is_watched_only_while_records_are_held(self):
        sim, net, cmsd, fs, _ = leaf_rig()
        assert fs.watchers == ()  # populating an idle leaf costs nothing
        net.send("sup.cmsd", cmsd.host.name, query("/store/none"))
        assert fs.watchers == (cmsd._on_store_change,)
        sim.run(until=1e-3)
        fs.put("/store/other", b"z")  # drained: the watcher leaves
        assert fs.watchers == ()
