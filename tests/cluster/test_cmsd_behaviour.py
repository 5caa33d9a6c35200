"""Behavioural tests of the cmsd daemon through small live clusters."""

import pytest

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster import cmsd as cmsd_mod
from repro.cluster import protocol as pr
from repro.cluster.cmsd import Cmsd
from repro.cluster.ids import NodeId, Role
from repro.core.selection import LeastLoad
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed, LatencyModel
from repro.sim.network import Network
from tests.probe import mailbox


class TestHeartbeatMetrics:
    def test_heartbeats_carry_load_and_space(self):
        cluster = ScallaCluster(2, config=ScallaConfig(seed=301, heartbeat_interval=0.1))
        cluster.settle(0.5)
        mgr = cluster.manager_cmsd()
        for server in cluster.servers:
            slot = mgr.membership.slot_of(server)
            assert mgr.metrics.free_space[slot] > 0  # disk_size reported

    def test_least_load_selection_prefers_idle_server(self, monkeypatch):
        cluster = ScallaCluster(2, config=ScallaConfig(seed=302, heartbeat_interval=0.1))
        cluster.populate(["/store/hot.root"], copies=2, size=64)
        cluster.settle(0.5)
        mgr = cluster.manager_cmsd()
        monkeypatch.setattr(cmsd_mod, "READ_POLICY", LeastLoad())
        # Warm the location cache first: the very first (cold) open is
        # answered by whichever server responds first, not by policy.
        cluster.run_process(cluster.client().open("/store/hot.root"), limit=60)
        # Fake a loaded first server via its reported metric.
        s0 = mgr.membership.slot_of(cluster.servers[0])
        s1 = mgr.membership.slot_of(cluster.servers[1])
        mgr.metrics.load[s0] = 0.9
        mgr.metrics.load[s1] = 0.1
        picks = set()
        for _ in range(4):
            res = cluster.run_process(cluster.client().open("/store/hot.root"), limit=60)
            picks.add(res.node)
            # keep the skew pinned (heartbeats would reset it to truth)
            mgr.metrics.load[s0] = 0.9
            mgr.metrics.load[s1] = 0.1
        assert picks == {cluster.servers[1]}


class TestReusedSlot:
    """A child logging into a slot freed by a drop starts from clean
    metrics; a reconnecting member keeps its own."""

    @staticmethod
    def _dropped_loaded_server():
        cluster = ScallaCluster(
            2,
            config=ScallaConfig(
                seed=306,
                heartbeat_interval=0.2,
                disconnect_timeout=0.5,
                drop_timeout=1.0,
            ),
        )
        cluster.settle(0.5)
        mgr = cluster.manager_cmsd()
        srv = next(s for s in cluster.servers if mgr.membership.slot_of(s) == 0)
        cluster.node(srv).crash()
        hb = pr.Heartbeat(node=srv, load=0.9, free_space=123.0)
        cluster.network.send(f"{srv}.cmsd", mgr.host.name, hb)
        cluster.run(until=cluster.sim.now + 0.1)
        assert (mgr.metrics.load[0], mgr.metrics.free_space[0]) == (0.9, 123.0)
        cluster.run(until=cluster.sim.now + 2.0)
        assert mgr.membership.slot_of(srv) is None  # dropped: slot 0 is free
        return cluster, mgr, srv

    def test_new_login_into_a_freed_slot_reads_no_load(self):
        cluster, mgr, _ = self._dropped_loaded_server()
        mailbox(cluster.sim, cluster.network.add_host("newcomer.cmsd"))
        login = pr.Login(node="newcomer", role="server", paths=("/store",))
        cluster.network.send("newcomer.cmsd", mgr.host.name, login)
        cluster.run(until=cluster.sim.now + 0.01)
        assert mgr.membership.slot_of("newcomer") == 0
        assert (mgr.metrics.load[0], mgr.metrics.free_space[0]) == (0.0, 0.0)

    def test_reconnect_keeps_the_members_metrics(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=307, heartbeat_interval=0.2))
        cluster.settle(0.5)
        mgr = cluster.manager_cmsd()
        srv = cluster.servers[0]
        slot = mgr.membership.slot_of(srv)
        mgr.metrics.load[slot] = 0.7
        login = pr.Login(node=srv, role="server", paths=cluster.config.exports)
        cluster.network.send(f"{srv}.cmsd", mgr.host.name, login)
        cluster.run(until=cluster.sim.now + 0.01)
        assert mgr.membership.slot_of(srv) == slot
        assert mgr.metrics.load[slot] == 0.7


class TestMembershipTiming:
    def test_disconnect_fires_after_timeout_not_before(self):
        cluster = ScallaCluster(
            1,
            config=ScallaConfig(seed=303, heartbeat_interval=0.2, disconnect_timeout=1.0),
        )
        cluster.settle(0.5)
        mgr = cluster.manager_cmsd()
        srv = cluster.servers[0]
        cluster.node(srv).crash()
        slot = mgr.membership.slot_of(srv)
        cluster.run(until=cluster.sim.now + 0.7)
        assert mgr.membership.slots[slot].online  # not yet
        cluster.run(until=cluster.sim.now + 1.0)
        assert not mgr.membership.slots[slot].online

    def test_drop_fires_only_after_drop_timeout(self):
        cluster = ScallaCluster(
            1,
            config=ScallaConfig(
                seed=304,
                heartbeat_interval=0.2,
                disconnect_timeout=0.5,
                drop_timeout=3.0,
            ),
        )
        cluster.settle(0.5)
        mgr = cluster.manager_cmsd()
        srv = cluster.servers[0]
        cluster.node(srv).crash()
        cluster.run(until=cluster.sim.now + 2.0)
        assert mgr.membership.slot_of(srv) is not None  # offline, kept
        cluster.run(until=cluster.sim.now + 2.5)
        assert mgr.membership.slot_of(srv) is None  # dropped

    def test_relogin_after_manager_forgets(self):
        cluster = ScallaCluster(
            2,
            config=ScallaConfig(seed=305, heartbeat_interval=0.2, relogin_timeout=0.5),
        )
        cluster.settle(0.5)
        cluster.node(cluster.managers[0]).restart()
        cluster.run(until=cluster.sim.now + 1.5)
        mgr = cluster.manager_cmsd()
        assert mgr.membership.member_count() == 2
        assert mgr.stats.logins_handled >= 2


class TestRequestRarelyRespond:
    def test_server_silent_for_absent_file(self):
        """Direct QueryFile to a server cmsd that lacks the file: silence."""
        cluster = ScallaCluster(1, config=ScallaConfig(seed=306))
        cluster.settle()
        srv = cluster.servers[0]
        probe = mailbox(cluster.sim, cluster.network.add_host("probe"))
        q = pr.QueryFile(path="/store/absent.root", hash_val=1, mode="r", serial=1)
        cluster.network.send("probe", f"{srv}.cmsd", q)
        cluster.run(until=cluster.sim.now + 1.0)
        assert len(probe) == 0

    def test_server_answers_for_present_file(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=307))
        cluster.place("/store/here.root", cluster.servers[0], size=32)
        cluster.settle()
        probe = mailbox(cluster.sim, cluster.network.add_host("probe"))
        q = pr.QueryFile(path="/store/here.root", hash_val=1, mode="r", serial=1)
        cluster.network.send("probe", f"{cluster.servers[0]}.cmsd", q)
        cluster.run(until=cluster.sim.now + 1.0)
        msgs = probe.drain()
        assert len(msgs) == 1
        assert isinstance(msgs[0].payload, pr.HaveFile)
        assert not msgs[0].payload.pending

    def test_supervisor_silent_upward_when_subtree_lacks_file(self):
        cluster = ScallaCluster(4, config=ScallaConfig(seed=308, fanout=2, full_delay=0.4))
        cluster.settle()
        sup = cluster.topology.supervisors[0]
        probe = mailbox(cluster.sim, cluster.network.add_host("probe"))
        q = pr.QueryFile(path="/store/nothing.root", hash_val=1, mode="r", serial=1)
        cluster.network.send("probe", f"{sup}.cmsd", q)
        cluster.run(until=cluster.sim.now + 2.0)
        assert len(probe) == 0


class TestEdgeBehaviour:
    def test_create_with_no_eligible_servers_is_notfound(self):
        from repro.cluster.client import NoSuchFile

        cluster = ScallaCluster(2, config=ScallaConfig(seed=309, full_delay=0.4))
        cluster.settle()
        client = cluster.client()
        with pytest.raises((NoSuchFile, Exception)):
            cluster.run_process(
                client.open("/elsewhere/f.root", mode="w", create=True), limit=60
            )

    def test_response_queue_exhaustion_falls_back_to_full_wait(self, monkeypatch):
        """With a single anchor, a second concurrent cold file cannot get a
        fast-response slot and is told to wait the full delay."""
        cfg = ScallaConfig(seed=310, full_delay=0.4)
        cluster = ScallaCluster(2, config=cfg)
        cluster.populate(["/store/a.root", "/store/b.root"], size=32)
        # Rebuild the manager with 1 anchor.
        monkeypatch.setattr(cmsd_mod, "DEFAULT_ANCHORS", 1)
        cluster.node(cluster.managers[0]).restart()
        cluster.run(until=cluster.sim.now + 2.0)

        waits = []

        def opener(path, tag):
            client = cluster.client(tag)
            res = yield from client.open(path)
            waits.append((tag, client.stats.waits))

        p1 = cluster.sim.process(opener("/store/a.root", "c1"))
        p2 = cluster.sim.process(opener("/store/b.root", "c2"))

        def both():
            yield cluster.sim.all_of([p1, p2])

        cluster.run_process(both(), limit=120)
        total_waits = sum(w for _t, w in waits)
        assert total_waits >= 1  # somebody hit the exhausted queue

    def test_unknown_message_ignored(self):
        cluster = ScallaCluster(1, config=ScallaConfig(seed=311))
        cluster.settle()
        mgr_host = cluster.manager_cmsd().host.name
        cluster.network.send(
            cluster.network.add_host("noise").name, mgr_host, object()
        )
        cluster.run(until=cluster.sim.now + 0.5)  # must not blow up
        res = cluster.run_process(
            cluster.client().open("/store/x", mode="w", create=True), limit=120
        )
        assert res.size == 0


class _Draws(LatencyModel):
    """Service times from a list, logging the simulated time of each draw."""

    def __init__(self, sim, values):
        self.sim = sim
        self.values = list(values)
        self.drawn_at = []

    def sample(self, rng):
        self.drawn_at.append(self.sim.now)
        return self.values.pop(0)


class TestFifoServer:
    """The cmsd serves one message at a time, in arrival order, each for a
    service time drawn as the message enters service."""

    def _cmsd(self, *service):
        sim = Simulator()
        net = Network(sim, default_latency=Fixed(1.0))
        net.add_host("probe")
        draws = _Draws(sim, service)
        cmsd = Cmsd(sim, net, NodeId("srv0", Role.SERVER), config=ScallaConfig(server_service=draws))
        served = []
        cmsd._dispatch = lambda msg, src, sent_at=0.0: served.append((msg, sim.now))
        cmsd.start()
        return sim, net, cmsd, draws, served

    def _send_at(self, sim, net, when, msg):
        sim.call_at(when, lambda m: net.send("probe", "srv0.cmsd", m), msg)

    def test_backlog_is_served_in_arrival_order(self):
        sim, net, cmsd, draws, served = self._cmsd(0.5, 0.25, 0.125)
        for i, when in enumerate((0.0, 0.1, 0.2)):
            self._send_at(sim, net, when, f"m{i}")
        sim.run()
        assert served == [("m0", 1.5), ("m1", 1.75), ("m2", 1.875)]
        # Drawn on entering service, not on arrival (1.0, 1.1, 1.2).
        assert draws.drawn_at == [1.0, 1.5, 1.75]

    def test_idle_server_starts_on_arrival(self):
        sim, net, cmsd, draws, served = self._cmsd(0.5, 0.5)
        self._send_at(sim, net, 0.0, "m0")
        self._send_at(sim, net, 2.0, "m1")
        sim.run()
        assert served == [("m0", 1.5), ("m1", 3.5)]
        assert draws.drawn_at == [1.0, 3.0]

    def test_message_arriving_while_stopped_is_dropped(self):
        """Stop drops the message in service and the backlog; a message
        arriving while stopped is dropped too, not served after start(),
        and the old message's stale service end is ignored."""
        sim, net, cmsd, draws, served = self._cmsd(0.5, 0.25)
        self._send_at(sim, net, 0.0, "m0")  # in service 1.0 -> 1.5
        self._send_at(sim, net, 0.1, "m1")  # backlog
        self._send_at(sim, net, 0.2, "while-stopped")  # arrives 1.2
        sim.run(until=1.15)
        cmsd.stop()
        sim.run(until=1.3)
        cmsd.start()  # before m0's stale service end at 1.5
        self._send_at(sim, net, 1.3, "fresh")  # arrives 2.3
        sim.run()
        assert [m for m, _ in served] == ["fresh"]
        assert [t for _, t in served] == pytest.approx([2.55])
        assert draws.drawn_at == [1.0, 2.3]


class _SweepLog:
    """Wraps a cmsd membership's ``expire`` (the liveness sweep's one
    call) to log when the sweep runs."""

    def __init__(self, sim, membership):
        self.sim = sim
        self.swept_at = []
        self._expire = membership.expire

    def __call__(self, *args):
        self.swept_at.append(self.sim.now)
        return self._expire(*args)


class TestTimers:
    """Cmsd timers are self-re-arming kernel callbacks tagged with a boot
    epoch; ``stop()`` makes every callback armed before it inert."""

    def _supervisor(self, *parents, latency=1e-3):
        sim = Simulator()
        net = Network(sim, default_latency=Fixed(latency))
        boxes = {p: mailbox(sim, net.add_host(f"{p}.cmsd")) for p in parents}
        cmsd = Cmsd(sim, net, NodeId("sup0", Role.SUPERVISOR), parents=parents)
        cmsd.membership.expire = _SweepLog(sim, cmsd.membership)
        return sim, net, cmsd, boxes

    @staticmethod
    def _heartbeats(box):
        return [d.sent_at for d in box.drain() if isinstance(d.payload, pr.Heartbeat)]

    def test_restarts_leave_one_heartbeat_and_one_sweep_per_interval(self):
        sim, net, cmsd, boxes = self._supervisor("mgr0", "mgr1")
        cmsd.start()
        for k in (1, 2, 3):
            sim.run(until=0.2 * k)
            cmsd.stop()
            cmsd.start()
        sim.run(until=10.5)
        expected = pytest.approx([0.6 + i for i in range(1, 10)])
        for box in boxes.values():
            assert self._heartbeats(box) == expected
        assert cmsd.membership.expire.swept_at == expected

    def test_stop_at_a_timer_instant_silences_that_timer(self):
        sim, net, cmsd, boxes = self._supervisor("mgr0")
        sim.call_at(1.0, lambda _: cmsd.stop(), None)  # queued ahead of the timers
        cmsd.start()
        sim.run(until=5.0)
        assert self._heartbeats(boxes["mgr0"]) == []
        assert cmsd.membership.expire.swept_at == []

    def test_first_arm_takes_the_bootstrap_slot(self):
        """A daemon started at the instant another's timer fires arms its
        own timers behind that timer, as a timer process's bootstrap did:
        at every later tie the running daemon heartbeats first."""
        sim = Simulator()
        net = Network(sim, default_latency=Fixed(1e-3))
        box = mailbox(sim, net.add_host("mgr0.cmsd"))
        a, b = (
            Cmsd(sim, net, NodeId(name, Role.SERVER), parents=("mgr0",))
            for name in ("srv0", "srv1")
        )
        a.start()
        sim.call_at(2.0, lambda _: b.start(), None)  # queued ahead of a's 2.0 tick
        sim.run(until=3.5)
        beats = [
            (d.sent_at, d.payload.node)
            for d in box.drain()
            if isinstance(d.payload, pr.Heartbeat)
        ]
        assert beats == [(1.0, "srv0"), (2.0, "srv0"), (3.0, "srv0"), (3.0, "srv1")]

    def test_waiters_joining_an_armed_clock_get_one_wait_each(self):
        """Three client waiters on two cold files: the first wakes the
        response clock, the others join it while it is armed.  Each gets
        exactly one Wait at its anchor's window end, from one expiry chain."""
        sim = Simulator()
        net = Network(sim, default_latency=Fixed(1e-3))
        mgr = Cmsd(sim, net, NodeId("mgr0", Role.MANAGER))
        passes = []
        expire = mgr.rq.expire
        mgr.rq.expire = lambda now: passes.append(now) or expire(now)
        mgr.start()
        # One server that never answers, so every locate floods and waits.
        mailbox(sim, net.add_host("srv0.cmsd"))
        net.send("srv0.cmsd", "mgr0.cmsd", pr.Login(node="srv0", role="server", paths=("/",)))
        boxes = {c: mailbox(sim, net.add_host(c)) for c in ("c1", "c2", "c3")}
        for req_id, (when, client, path) in enumerate(
            [(0.01, "c1", "/store/a"), (0.06, "c2", "/store/b"), (0.07, "c3", "/store/a")]
        ):
            locate = pr.Locate(req_id, client, path, "r")
            sim.call_at(when, lambda m: net.send(m.reply_to, "mgr0.cmsd", m), locate)
        sim.run(until=1.0)
        # Window end: arrival (1 ms) + service (5 µs) + 133 ms, plus the
        # clock's 1 µs slack.
        end_a, end_b = 0.011005 + 0.133 + 1e-6, 0.061005 + 0.133 + 1e-6
        waits = {}
        for client, box in boxes.items():
            (d,) = box.drain()
            assert isinstance(d.payload, pr.Wait)
            waits[client] = d.sent_at
        assert waits == pytest.approx({"c1": end_a, "c2": end_b, "c3": end_a})
        assert passes == pytest.approx([end_a, end_b])
        assert not mgr._rq_armed  # parked again: no chain left running
