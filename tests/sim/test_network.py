"""Unit tests for the simulated network and failure injection."""

import dataclasses
import random

import pytest

from repro.sim.failures import FailureEvent, FailureInjector, random_crash_schedule
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed, LogNormal, Uniform
from repro.sim.network import KEPT_RUN, ChaosConfig, Network
from tests.probe import mailbox


def make_net(latency=10e-6):
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(latency), rng=random.Random(7))
    a = net.add_host("a")
    b = net.add_host("b")
    return sim, net, a, b


class TestDelivery:
    def test_message_arrives_after_latency(self):
        sim, net, a, b = make_net(latency=5e-6)
        got = []
        box = mailbox(sim, b)

        def receiver():
            env = yield box.get()
            got.append((sim.now, env.payload, env.latency))

        sim.process(receiver())
        net.send("a", "b", "ping")
        sim.run()
        assert got == [(5e-6, "ping", 5e-6)]

    def test_stats_counted(self):
        sim, net, a, b = make_net()
        net.send("a", "b", "x", size=100)
        sim.run()
        assert net.stats.sent == 1
        assert net.stats.delivered == 1
        assert net.stats.bytes_sent == 100

    def test_per_link_latency_override(self):
        sim, net, a, b = make_net(latency=1.0)
        net.set_link_latency("a", "b", Fixed(0.25))
        got = []
        box = mailbox(sim, b)

        def receiver():
            env = yield box.get()
            got.append(sim.now)

        sim.process(receiver())
        net.send("a", "b", "x")
        sim.run()
        assert got == [0.25]

    def test_unknown_destination_raises(self):
        sim, net, a, b = make_net()
        with pytest.raises(KeyError):
            net.send("a", "ghost", "x")

    def test_failed_send_counts_nothing(self):
        sim, net, a, b = make_net()
        with pytest.raises(KeyError):
            net.send("a", "ghost", "x", size=5)
        assert net.stats.sent == 0
        assert net.stats.bytes_sent == 0

    def test_stats_exact_right_after_run_until(self):
        sim, net, a, b = make_net(latency=1.0)
        net.send("a", "b", "x")
        sim.run(until=0.5)
        assert net.stats.delivered == 0
        sim.run(until=1.0)
        assert net.stats.delivered == 1

    def test_duplicate_host_rejected(self):
        sim, net, a, b = make_net()
        with pytest.raises(ValueError):
            net.add_host("a")

    def test_random_latency_is_seeded(self):
        def run_once():
            sim = Simulator()
            net = Network(sim, default_latency=Uniform(1e-6, 1e-3), rng=random.Random(99))
            net.add_host("a")
            b = net.add_host("b")
            times = []
            box = mailbox(sim, b)

            def receiver():
                while True:
                    yield box.get()
                    times.append(sim.now)

            sim.process(receiver())
            for _ in range(10):
                net.send("a", "b", "x")
            sim.run()
            return times

        assert run_once() == run_once()


class TestFailures:
    def test_message_to_dead_host_dropped(self):
        sim, net, a, b = make_net()
        net.kill("b")
        assert not net.send("a", "b", "x")
        sim.run()
        assert net.stats.delivered == 0
        assert net.stats.dropped_dead == 1

    def test_death_during_flight_drops(self):
        sim, net, a, b = make_net(latency=1.0)
        net.send("a", "b", "x")
        sim.run(until=0.5)
        net.kill("b")
        sim.run()
        assert net.stats.delivered == 0
        assert net.stats.dropped_dead == 1

    def test_revive_restores_delivery(self):
        sim, net, a, b = make_net()
        net.kill("b")
        net.revive("b")
        net.send("a", "b", "x")
        sim.run()
        assert net.stats.delivered == 1

    def test_partition_blocks_both_ways(self):
        sim, net, a, b = make_net()
        net.partition("a", "b")
        assert not net.send("a", "b", "x")
        assert not net.send("b", "a", "y")
        assert net.stats.dropped_partition == 2
        net.heal("a", "b")
        assert net.send("a", "b", "z")
        sim.run()
        assert net.stats.delivered == 1


class TestInjector:
    def test_scheduled_crash_and_restart(self):
        sim, net, a, b = make_net()
        crashes, restarts = [], []
        inj = FailureInjector(
            sim,
            net,
            on_crash=lambda h: crashes.append((sim.now, h)),
            on_restart=lambda h: restarts.append((sim.now, h)),
        )
        inj.schedule(
            [
                FailureEvent(at=2.0, kind="crash", target="b"),
                FailureEvent(at=5.0, kind="restart", target="b"),
            ]
        )
        sim.run()
        assert crashes == [(2.0, "b")]
        assert restarts == [(5.0, "b")]
        assert net.hosts["b"].alive

    def test_partition_events(self):
        sim, net, a, b = make_net()
        inj = FailureInjector(sim, net)
        inj.schedule(
            [
                FailureEvent(at=1.0, kind="partition", target=("a", "b")),
                FailureEvent(at=2.0, kind="heal", target=("a", "b")),
            ]
        )
        sim.run(until=1.5)
        assert net.partitioned("a", "b")
        sim.run()
        assert not net.partitioned("a", "b")

    def test_unknown_kind_rejected(self):
        sim, net, a, b = make_net()
        inj = FailureInjector(sim, net)
        with pytest.raises(ValueError):
            inj.schedule([FailureEvent(at=0.0, kind="meteor", target="b")])

    def test_event_in_the_past_rejected(self):
        """A past event is a schedule bug: rejected while the caller is on
        the stack, not armed and silently never run."""
        sim, net, a, b = make_net()
        inj = FailureInjector(sim, net)
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="in the past"):
            inj.schedule([FailureEvent(at=2.0, kind="crash", target="b")])
        sim.run()
        assert inj.executed == []
        assert net.hosts["b"].alive


class TestRandomSchedule:
    def test_pairs_and_horizon(self):
        rng = random.Random(3)
        events = random_crash_schedule(
            rng, ["h1", "h2"], horizon=100.0, crashes=5, min_downtime=1.0, max_downtime=5.0
        )
        assert len(events) == 10
        assert all(0 <= e.at <= 100.0 for e in events)
        assert sum(e.kind == "crash" for e in events) == 5
        assert sum(e.kind == "restart" for e in events) == 5
        assert events == sorted(events, key=lambda e: e.at)

    def test_bad_downtime_range(self):
        with pytest.raises(ValueError):
            random_crash_schedule(
                random.Random(0), ["h"], horizon=10, crashes=1, min_downtime=5, max_downtime=1
            )

    def test_windows_non_overlapping_per_host(self):
        """Property: per host, crash/restart windows never overlap.

        Overlap used to be possible (hosts sampled with replacement, no
        collision check): an earlier pair's restart would revive the host
        mid-way through a later pair's downtime.  Sorted by time, a valid
        per-host event sequence must strictly alternate crash/restart.
        """
        for seed in range(25):
            events = random_crash_schedule(
                random.Random(seed),
                ["h1", "h2"],
                horizon=200.0,
                crashes=8,
                min_downtime=5.0,
                max_downtime=15.0,
            )
            assert len(events) == 16
            per_host: dict[str, list] = {}
            for e in events:
                per_host.setdefault(e.target, []).append(e)
            for host, evs in per_host.items():
                evs.sort(key=lambda e: e.at)
                kinds = [e.kind for e in evs]
                assert kinds == ["crash", "restart"] * (len(evs) // 2), (
                    f"seed {seed}: overlapping windows on {host}: "
                    f"{[(e.kind, round(e.at, 2)) for e in evs]}"
                )

    def test_unplaceable_schedule_raises(self):
        """Demanding more downtime than the horizon can hold fails loudly
        instead of looping forever or silently overlapping."""
        with pytest.raises(ValueError):
            random_crash_schedule(
                random.Random(1),
                ["only"],
                horizon=10.0,
                crashes=5,
                min_downtime=9.0,
                max_downtime=9.5,
            )


def drain(sim, host, got):
    box = mailbox(sim, host)

    def receiver():
        while True:
            env = yield box.get()
            got.append(env)

    sim.process(receiver())


class TestGrayFailures:
    def test_isolate_blocks_both_directions(self):
        sim, net, a, b = make_net()
        net.isolate("b")
        assert not net.send("a", "b", "x")
        assert not net.send("b", "a", "y")
        assert net.hosts["b"].alive  # unlike kill: the host itself is fine

    def test_unisolate_restores(self):
        sim, net, a, b = make_net()
        net.isolate("b")
        net.unisolate("b")
        assert net.send("a", "b", "x")

    def test_partition_unknown_host_raises(self):
        sim, net, a, b = make_net()
        for cut in (net.partition, net.partition_oneway):
            with pytest.raises(KeyError):
                cut("a", "ghost")
            with pytest.raises(KeyError):
                cut("ghost", "b")
        assert not net.partitioned("a", "ghost")
        assert net.send("a", "b", "x")

    def test_isolate_unknown_host_raises(self):
        sim, net, a, b = make_net()
        with pytest.raises(KeyError):
            net.isolate("ghost")

    def test_oneway_partition_is_directional(self):
        sim, net, a, b = make_net()
        net.partition_oneway("a", "b")
        assert not net.send("a", "b", "x")
        assert net.send("b", "a", "y")
        net.heal_oneway("a", "b")
        assert net.send("a", "b", "x")

    def test_isolation_applies_at_delivery_time(self):
        """A message in flight when the isolation lands is lost too."""
        sim, net, a, b = make_net(latency=1.0)
        got = []
        drain(sim, b, got)
        net.send("a", "b", "x")
        sim.run(until=0.5)
        net.isolate("b")
        sim.run()
        assert got == []


class TestChaos:
    def make_chaos_net(self, **knobs):
        from repro.sim.network import ChaosConfig

        sim = Simulator()
        net = Network(
            sim,
            default_latency=Fixed(1e-3),
            rng=random.Random(7),
            chaos=ChaosConfig(seed=11, **knobs),
        )
        return sim, net, net.add_host("a"), net.add_host("b")

    def test_disabled_chaos_is_not_installed(self):
        """All-zero knobs mean no chaos RNG at all — the healthy path
        draws nothing extra, keeping event streams bit-identical."""
        sim, net, a, b = self.make_chaos_net()
        assert net.chaos is None
        assert net._chaos_rng is None

    def test_drop_probability_eats_messages(self):
        sim, net, a, b = self.make_chaos_net(drop_prob=0.5)
        got = []
        drain(sim, b, got)
        for _ in range(200):
            net.send("a", "b", "x")
        sim.run()
        assert net.stats.chaos_dropped > 0
        assert len(got) == 200 - net.stats.chaos_dropped

    def test_duplication_delivers_twice(self):
        sim, net, a, b = self.make_chaos_net(dup_prob=0.5)
        got = []
        drain(sim, b, got)
        for _ in range(100):
            net.send("a", "b", "x")
        sim.run()
        assert net.stats.chaos_duplicated > 0
        assert len(got) == 100 + net.stats.chaos_duplicated

    def test_delay_spike_slows_delivery(self):
        sim, net, a, b = self.make_chaos_net(delay_spike_prob=1.0, delay_spike=0.5)
        got = []
        drain(sim, b, got)
        net.send("a", "b", "x")
        sim.run()
        assert net.stats.chaos_delayed == 1
        assert got[0].latency > 1e-3  # base latency plus the spike

    def test_chaos_is_seeded(self):
        def run():
            sim, net, a, b = self.make_chaos_net(
                drop_prob=0.1, dup_prob=0.1, delay_spike_prob=0.1
            )
            got = []
            drain(sim, b, got)
            for _ in range(100):
                net.send("a", "b", "x")
            sim.run()
            s = net.stats
            return (s.chaos_dropped, s.chaos_duplicated, s.chaos_delayed, len(got))

        assert run() == run()


class TestInjectorValidation:
    def test_unknown_host_rejected_at_schedule_time(self):
        sim, net, a, b = make_net()
        inj = FailureInjector(sim, net)
        with pytest.raises(ValueError, match="unknown host"):
            inj.schedule([FailureEvent(at=1.0, kind="crash", target="ghost")])

    def test_pair_kind_needs_a_pair(self):
        sim, net, a, b = make_net()
        inj = FailureInjector(sim, net)
        with pytest.raises(ValueError, match="host pair"):
            inj.schedule([FailureEvent(at=1.0, kind="partition", target="a")])

    def test_pair_kind_with_unknown_member_rejected(self):
        sim, net, a, b = make_net()
        inj = FailureInjector(sim, net)
        with pytest.raises(ValueError, match="unknown host"):
            inj.schedule(
                [FailureEvent(at=1.0, kind="partition_oneway", target=("a", "ghost"))]
            )

    def test_host_kind_needs_a_name(self):
        sim, net, a, b = make_net()
        inj = FailureInjector(sim, net)
        with pytest.raises(ValueError, match="host name"):
            inj.schedule([FailureEvent(at=1.0, kind="isolate", target=("a", "b"))])

    def test_new_kinds_execute(self):
        sim, net, a, b = make_net()
        inj = FailureInjector(sim, net)
        inj.schedule(
            [
                FailureEvent(at=1.0, kind="isolate", target="b"),
                FailureEvent(at=2.0, kind="unisolate", target="b"),
                FailureEvent(at=3.0, kind="partition_oneway", target=("a", "b")),
                FailureEvent(at=4.0, kind="heal_oneway", target=("a", "b")),
            ]
        )
        sim.run(until=1.5)
        assert not net.send("a", "b", "x")
        sim.run(until=2.5)
        assert net.send("a", "b", "x")
        sim.run(until=3.5)
        assert not net.send("a", "b", "x")
        sim.run()
        assert net.send("a", "b", "x")
        assert len(inj.executed) == 4


class TestKeptCopies:
    """Copies an offer hook accepts stay with the network until replayed
    (through the drop rules and counters) or released into the heap."""

    def rig(self):
        """``got`` holds ``(now, payload, slot)`` per delivery: the slot
        ``(arrival, seq)`` for a replayed copy, None for a queued one."""
        sim, net, a, b = make_net(latency=10e-6)
        got = []

        def replay(run):
            got.extend((sim.now, payload, (arrival, seq)) for arrival, seq, _, payload, _ in run)

        b.listen(lambda src, payload, sent_at: got.append((sim.now, payload, None)))
        net.set_offer("b", lambda payload: payload.startswith("silent"), replay)
        return sim, net, got

    def test_replayed_in_its_slot_without_a_heap_entry(self):
        sim, net, got = self.rig()
        depth, seq = len(sim._heap), sim._seq
        assert net.send("a", "b", "silent")
        assert len(sim._heap) == depth and net.keeps("b")
        sim.run(until=20e-6)
        assert got == []  # nothing ran: the copy is still kept
        assert net.stats.delivered == 1  # reading the stats replays it
        (now, payload, slot), = got
        assert payload == "silent" and slot[:2] == (10e-6, seq)
        assert not net.keeps("b")

    def test_ordinary_copies_are_queued(self):
        sim, net, got = self.rig()
        net.send("a", "b", "loud")
        assert not net.keeps("b")
        sim.run()
        assert got == [(10e-6, "loud", None)]

    def test_drop_rules_apply_as_of_arrival(self):
        sim, net, got = self.rig()
        net.send("a", "b", "silent-early")  # arrives at 10 us
        sim.run(until=5e-6)
        net.send("a", "b", "silent-late")  # arrives at 15 us
        sim.run(until=12e-6)
        net.isolate("b")  # after the first arrival, before the second
        sim.run(until=1e-3)
        stats = net.stats
        assert [p for _, p, _ in got] == ["silent-early"]
        assert (stats.delivered, stats.dropped_partition) == (1, 1)

    def test_a_kill_or_revive_settles_only_its_own_host(self):
        sim, net, got = self.rig()
        net.add_host("c")
        got_c = []
        net.set_offer("c", lambda payload: True, lambda run: got_c.extend(e[3] for e in run))
        net.send("a", "b", "silent-b")  # arrives at 10 us
        net.send("a", "c", "silent-c1")  # arrives at 10 us
        sim.run(until=20e-6)
        net.send("a", "c", "silent-c2")  # arrives at 30 us, after the kill
        net.kill("c")
        assert got_c == ["silent-c1"]  # c's arrived copy, served before it died
        assert got == [] and net.keeps("b")  # b's passed copy is not touched
        sim.run(until=40e-6)
        net.revive("c")
        assert got_c == ["silent-c1"]  # silent-c2 reached a dead host
        assert got == [] and net.keeps("b")
        net.catch_up("b")
        assert [(p, s[0]) for _, p, s in got] == [("silent-b", 10e-6)]
        stats = net.stats
        assert (stats.sent, stats.delivered, stats.dropped_dead) == (3, 2, 1)

    def test_release_queues_the_rest_in_their_slots(self):
        sim, net, got = self.rig()
        net.send("a", "b", "silent-1")
        sim.run(until=5e-6)
        net.send("a", "b", "silent-2")
        sim.run(until=12e-6)
        net.release("b")  # the first has arrived: replayed now
        assert [(p, s is not None) for _, p, s in got] == [("silent-1", True)]
        sim.run()
        assert got[1] == (5e-6 + 10e-6, "silent-2", None)  # by its heap entry
        assert net.stats.delivered == 2

    def test_removing_the_hook_releases_its_copies(self):
        sim, net, got = self.rig()
        net.send("a", "b", "silent")
        net.set_offer("b", None)
        assert not net.keeps("b")
        sim.run()
        assert got == [(10e-6, "silent", None)]


class TestFloodSend:
    """``send`` with a tuple of destinations is the same copies sent one by
    one: the same heap entries, kept records, counters, drops and replay
    runs, on the fast path and on the per-copy fallback."""

    NAMES = tuple(f"h{i}" for i in range(6))

    def twin(self, flood, *, model=None, chaos=None, setup=None, midway=None):
        sim = Simulator()
        net = Network(
            sim,
            default_latency=model if model is not None else Uniform(8e-6, 12e-6),
            rng=random.Random(3),
            chaos=chaos,
        )
        net.add_host("src")
        log = []
        for name in self.NAMES:
            host = net.add_host(name)
            host.listen(lambda src, p, sent_at, n=name: log.append(("queued", n, sim.now, p)))
            if name in ("h0", "h2", "h3", "h5"):

                def replay(run, n=name):
                    log.append(("run", n, sim.now, [(e[0], e[1], e[3]) for e in run]))

                net.set_offer(name, lambda p: p.startswith("silent"), replay)
        if setup is not None:
            setup(net)

        def state():
            heap = sorted(
                (t, seq, item[0].name, *item[1:])
                for t, seq, fn, item in sim._heap
                if fn is net._deliver_fn
            )
            kept = {name: list(entries) for name, entries in net._kept.items()}
            return heap, kept, dataclasses.asdict(net._stats), sim._seq, hash(net.rng.getstate())

        states, sent = [], []
        steps = random.Random(9)
        for i in range(80):
            if i == 40 and midway is not None:
                midway(net)
            payload = ("loud" if i % 4 == 0 else "silent") + str(i)
            if flood:
                sent.append(net.send("src", self.NAMES, payload, size=40))
            else:
                sent.append(all([net.send("src", n, payload, size=40) for n in self.NAMES]))
            states.append(state())
            sim.run(until=sim.now + steps.choice((0.0, 2e-6, 5e-6, 20e-6)))
        sim.run()
        states.append((state(), dataclasses.asdict(net.stats)))
        return states, sent, log

    @pytest.mark.parametrize(
        "case",
        ["uniform", "fixed", "other model", "dead", "partitioned", "chaos", "link override"],
    )
    def test_tuple_send_equals_copies_sent_one_by_one(self, case):
        kw = {}
        if case == "fixed":
            kw["model"] = Fixed(10e-6)
        elif case == "other model":
            kw["model"] = LogNormal(10e-6, 0.3)
        elif case == "dead":
            kw["setup"] = lambda net: net.kill("h2")
            kw["midway"] = lambda net: (net.kill("h1"), net.revive("h2"))
        elif case == "partitioned":
            kw["setup"] = lambda net: net.partition("src", "h3")
            kw["midway"] = lambda net: (net.heal("src", "h3"), net.partition_oneway("src", "h5"))
        elif case == "chaos":
            kw["chaos"] = ChaosConfig(drop_prob=0.1, dup_prob=0.2, delay_spike_prob=0.2, seed=4)
        elif case == "link override":
            kw["setup"] = lambda net: net.set_link_latency("src", "h3", Fixed(3e-6))
        flood = self.twin(True, **kw)
        assert flood == self.twin(False, **kw)
        states, sent, log = flood
        runs = [entry for entry in log if entry[0] == "run"]
        assert runs and max(len(entry[3]) for entry in runs) > 1  # replayed in runs
        # Copies piled up between runs.
        assert any(
            len(kept) >= KEPT_RUN // 2 for state in states[:-1] for kept in state[1].values()
        )

    def test_unknown_destination_raises_before_anything_is_counted(self):
        sim, net, a, b = make_net()
        with pytest.raises(KeyError):
            net.send("a", ("b", "nowhere"), "x", size=10)
        assert dataclasses.asdict(net.stats) == dataclasses.asdict(type(net.stats)())
        assert sim._heap == []

    def test_dead_target_draws_no_latency_and_takes_no_seq(self):
        sim, net, a, b = make_net()
        net.default_latency = Uniform(1e-6, 2e-6)
        net.kill("b")
        state = net.rng.getstate(), sim._seq
        assert not net.send("a", ("b", "b"), "x")
        assert (net.rng.getstate(), sim._seq) == state
        assert net.stats.dropped_dead == 2
