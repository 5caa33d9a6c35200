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
from repro.cluster.fs import FSError, ServerFS
from repro.cluster.mss import MassStorage
from repro.cluster.scalla import ScallaCluster, ScallaConfig
from repro.cluster.xrootd import XrootdServer
from repro.obs import Observability
from repro.sim import ChaosConfig
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed, Uniform
from repro.sim.network import KEPT_RUN, Network


@pytest.fixture
def send_log(monkeypatch):
    """Every copy Network.send sends, as (time, src, dst, payload, size)."""
    log = []
    send = Network.send

    def logged(self, src, dst, payload, *, size=0):
        for name in dst if isinstance(dst, tuple) else (dst,):
            log.append((self.sim.now, src, name, repr(payload), size))
        return send(self, src, dst, payload, size=size)

    monkeypatch.setattr(Network, "send", logged)
    return log


@pytest.fixture
def hand_offs(monkeypatch):
    """How often a leaf switched to eager with something pending: copies
    the network keeps for it, or a record-served query in service."""
    count = [0]
    go_eager = Cmsd._go_eager

    def counted(self):
        count[0] += self._end is not None or self.network.keeps(self.host.name)
        go_eager(self)

    monkeypatch.setattr(Cmsd, "_go_eager", counted)
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


def leaf_rig(*, obs=None, mss=None, **config):
    """One server cmsd and a bare 'parent' host that sends it queries;
    other keywords go to :func:`add_leaf`."""
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(10e-6), rng=random.Random(1))
    parent = net.add_host("sup.cmsd")
    replies = []
    parent.listen(lambda src, msg, sent_at: replies.append((sim.now, msg)))
    cmsd, fs = add_leaf(sim, net, "srv0", obs=obs, mss=mss, **config)
    return sim, net, cmsd, fs, replies


def add_leaf(sim, net, name: str, *, obs=None, mss=None, parents=(), **config):
    """A started server cmsd (80 us service) with its own disk, logged
    into *parents* (bare hosts named ``<parent>.cmsd``); *config* sets
    further :class:`ScallaConfig` fields."""
    node = NodeId(name, Role.SERVER)
    fs = ServerFS()
    xrootd = XrootdServer(sim, net, node, fs, mss=mss(sim) if mss else None)
    config = ScallaConfig(server_service=Fixed(80e-6), sanitize=False, **config)
    cmsd = Cmsd(sim, net, node, parents=parents, xrootd=xrootd, config=config, obs=obs)
    cmsd.start()
    return cmsd, fs


def query(path: str, serial: int = 1) -> pr.QueryFile:
    return pr.QueryFile(path=path, hash_val=0, mode="r", serial=serial)


class TestRecords:
    def test_silent_copy_adds_no_heap_entry(self):
        sim, net, cmsd, fs, _ = leaf_rig()
        depth, seq = len(sim._heap), sim._seq
        assert net.send("sup.cmsd", cmsd.host.name, query("/store/none"))
        assert len(sim._heap) == depth
        assert sim._seq == seq + 1  # the copy's slot is reserved all the same
        assert len(net._kept[cmsd.host.name]) == 1

    def test_answerable_copy_is_delivered_eagerly(self):
        sim, net, cmsd, fs, replies = leaf_rig()
        fs.put("/store/here", b"x")
        depth = len(sim._heap)
        net.send("sup.cmsd", cmsd.host.name, query("/store/here"))
        assert len(sim._heap) == depth + 1
        assert not net.keeps(cmsd.host.name)  # nothing kept on the wire
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

    def test_passed_copies_wait_for_less_than_one_run(self, monkeypatch):
        """Kept copies that have arrived are not replayed one by one but
        pile up; right after a keep fewer than ``KEPT_RUN`` of them are
        still waiting, and every copy kept is one the hook accepted."""
        peak = [0]
        arrivals = []
        offer = Cmsd._offer

        def checked(self, msg):
            took = offer(self, msg)
            if took:
                # Fixed 10 us latency; Network.send reserved the slot just now.
                arrivals.append((self.sim.now + 10e-6, self.sim._seq - 1))
            return took

        def kept_after(self, src, dst, payload, *, size=0):
            sent = send(self, src, dst, payload, size=size)
            kept = [k[:2] for k in self._kept.get(dst, [])]
            assert set(kept) <= set(arrivals)
            passed = sum(self.sim.passed(*k) for k in kept)
            assert passed < KEPT_RUN
            peak[0] = max(peak[0], passed)
            return sent

        send = Network.send
        monkeypatch.setattr(Cmsd, "_offer", checked)
        monkeypatch.setattr(Network, "send", kept_after)
        sim, net, cmsd, fs, _ = leaf_rig()
        rng = random.Random(4)
        for i in range(200):
            net.send("sup.cmsd", cmsd.host.name, query(f"/store/n{i}", i))
            sim.run(until=sim.now + rng.choice((0.0, 3e-6, 40e-6, 200e-6)))
        sim.run(until=sim.now + 1e-3)
        # Only the bound replayed them: a full list less the copy just kept.
        assert peak[0] == KEPT_RUN - 2
        assert net.stats.delivered == 200

    def test_stop_drops_arrived_records_and_delivers_the_rest(self):
        sim, net, cmsd, fs, _ = leaf_rig()
        net.send("sup.cmsd", cmsd.host.name, query("/store/a"))
        sim.run(until=20e-6)
        net.send("sup.cmsd", cmsd.host.name, query("/store/b"))
        cmsd.stop()
        assert not net.keeps(cmsd.host.name) and cmsd._in_service is None
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

    def test_failing_remove_and_stage_keep_the_leaf_lazy(self):
        # Neither can turn a pending query into an answer: a failing remove
        # changes nothing, and a staged path was archived already.
        outcomes = []
        for obs in (Observability(), None):
            sim, net, cmsd, fs, replies = leaf_rig(obs=obs, mss=MassStorage)
            mss = cmsd.xrootd.mss
            mss.archive("/store/tape/a", 64)
            net.send("sup.cmsd", cmsd.host.name, query("/store/none"))
            sim.run(until=20e-6)
            assert net.stats.delivered == 1  # arrived at 10 us, served until 90 us
            depth = len(sim._heap)
            with pytest.raises(FSError):
                fs.remove("/store/missing")
            mss.stage("/store/tape/a")
            if obs is None:
                assert len(sim._heap) == depth + 1  # the stage's own timer only
                assert fs.watchers == mss.watchers == (cmsd._on_store_change,)
                assert cmsd._end is not None  # still record-served
            sim.run(until=200.0)
            outcomes.append((replies, dataclasses.asdict(net.stats), mss.stages_completed))
        assert outcomes[0] == outcomes[1]


def tie_script(observability: bool, seed: int):
    """Queries (most of them silent), answerable queries and heartbeat acks
    sent to one leaf on a 10 us grid: with 10 us hops and 80 us service,
    arrivals and service ends tie often.  The leaf's parent is ``sup``,
    whose acks it keeps on the wire when it has no hub; it heartbeats every
    0.5 ms and calls ``sup`` silent after 1.5 ms without an ack, so its
    heartbeats read the silence clock the kept acks set, and it re-logs in
    with a jittered backoff between acks."""
    sim, net, cmsd, fs, replies = leaf_rig(
        obs=Observability() if observability else None,
        parents=("sup",),
        heartbeat_interval=0.5e-3,
        relogin_timeout=1.5e-3,
    )
    fs.put("/store/here", b"x")
    rng = random.Random(seed)
    for i in range(120):
        roll = rng.random()
        if roll < 0.7:
            msg = query(f"/store/none{i}", i)
        elif roll < 0.9:
            msg = query("/store/here", i)
        else:
            msg = pr.HeartbeatAck(node="sup", known=True)
        at = rng.randrange(1000) * 10e-6
        sim.call_at(at, lambda _a, m=msg: net.send("sup.cmsd", cmsd.host.name, m), None)
    sim.run(until=0.1)
    cmsd._catch_up()
    return (
        [(t, repr(m)) for t, m in replies],
        dataclasses.asdict(net.stats),
        dict(cmsd._last_parent_ack),
        dict(cmsd._relogin_state),
    )


def test_unknown_ack_is_delivered_eagerly_and_logs_in_again():
    """A ``known=False`` ack sends a ``Login``, which draws from the
    network's RNG in global order, so the leaf never keeps it; a known ack
    it keeps, with no heap entry."""
    sim, net, cmsd, fs, replies = leaf_rig(parents=("sup",))
    sim.run(until=1e-3)
    assert [type(m) for _, m in replies] == [pr.Login]  # the start-up login
    depth = len(sim._heap)
    net.send("sup.cmsd", cmsd.host.name, pr.HeartbeatAck(node="sup", known=True))
    assert len(sim._heap) == depth and net.keeps(cmsd.host.name)
    sim.run(until=2e-3)
    cmsd._catch_up()
    assert cmsd._last_parent_ack == {"sup": pytest.approx(1e-3 + 90e-6)}
    net.send("sup.cmsd", cmsd.host.name, pr.HeartbeatAck(node="sup", known=False))
    assert len(sim._heap) == depth + 1 and not net.keeps(cmsd.host.name)
    sim.run(until=3e-3)
    assert [(t, type(m)) for t, m in replies[1:]] == [
        (pytest.approx(2e-3 + 100e-6), pr.Login)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_switch_to_eager_under_fixed_latencies(send_log, monkeypatch, seed):
    """A real message reaching a leaf while a record-served query is in
    service gives that service end the slot just past its busy period's
    arrival seqs; ties must then resolve as on the eager path."""
    fractional = [0]
    call_at_seq = Simulator.call_at_seq

    def counted(self, when, seq, fn, arg):
        fractional[0] += seq != int(seq)
        call_at_seq(self, when, seq, fn, arg)

    monkeypatch.setattr(Simulator, "call_at_seq", counted)
    eager = tie_script(True, seed)
    eager_log = list(send_log)
    assert fractional[0] == 0
    send_log.clear()
    lazy = tie_script(False, seed)
    assert fractional[0] > 0  # the seq + 0.5 slot was taken
    assert send_log == eager_log
    assert lazy == eager


def test_switched_end_keeps_its_place_among_same_instant_arrivals(send_log):
    """A new file switches a leaf to eager while a record-served query is
    in service; answerable queries reach it and a second leaf exactly when
    that service ends.  On the eager path the end runs first, so the first
    leaf takes its query into service before the second leaf does, and
    their answers, due at the same instant, leave in that order."""
    runs = []
    for obs in (Observability(), None):
        send_log.clear()
        sim, net, first, fs1, replies = leaf_rig(obs=obs)
        second, fs2 = add_leaf(sim, net, "srv1", obs=obs)
        fs1.put("/store/one", b"x")
        fs2.put("/store/two", b"x")

        def send_at(when, cmsd, path):
            sim.call_at(when, lambda _a: net.send("sup.cmsd", cmsd.host.name, query(path)), None)

        send_at(0.0, first, "/store/none")  # served 10-90 us, silently
        send_at(80e-6, first, "/store/one")  # both arrive at 90 us
        send_at(80e-6, second, "/store/two")
        sim.call_at(85e-6, lambda _a: fs1.put("/store/new", b"y"), None)
        sim.run(until=1e-3)
        runs.append((list(send_log), [(t, m.node) for t, m in replies]))
    assert runs[0] == runs[1]
    assert runs[1][1] == [(pytest.approx(180e-6), "srv0"), (pytest.approx(180e-6), "srv1")]
