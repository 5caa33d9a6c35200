"""Timed callbacks (``Simulator.call_at``) and process-free delivery.

A ``call_at`` entry is a heap entry that is a callback, not an event.  It
must run in exact ``(time, seq)`` order with events, timeouts and
deferred-ring entries, and ``run(until)`` / ``run_until_process`` must
stop around it exactly as they stop around events.  The network delivers
every message as one such entry and hands it to the target host's
``receive`` — the handler installed with ``listen``, or a drop.
"""

import pytest

from repro.sim.errors import SimError
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import Network
from tests.probe import Delivery, mailbox


class TestCallAtOrdering:
    def test_same_time_sources_run_in_seq_order(self):
        """Callbacks, ring entries and heap events queued for one instant
        interleave strictly by scheduling order."""
        sim = Simulator()
        log = []

        def child():
            log.append("ring")
            yield sim.sleep(0.0)

        def driver():
            yield sim.sleep(1.0)
            sim.call_at(sim.now, log.append, "call-1")
            sim.process(child())
            ev = sim.event()
            ev.callbacks.append(lambda e: log.append("event"))
            ev.succeed()
            sim.call_at(sim.now, log.append, "call-2")
            log.append("driver")

        sim.process(driver())
        sim.run()
        assert log == ["driver", "call-1", "ring", "event", "call-2"]

    def test_future_callbacks_interleave_with_timeouts(self):
        sim = Simulator()
        log = []
        t = sim.timeout(2.0)
        t.callbacks.append(lambda e: log.append(("timeout", sim.now)))
        sim.call_at(2.0, log.append, ("call", 2.0))
        sim.call_at(1.0, log.append, ("call", 1.0))
        sim.run()
        assert log == [("call", 1.0), ("timeout", 2.0), ("call", 2.0)]
        assert sim.now == 2.0

    def test_none_argument_is_a_callback_not_an_event(self):
        sim = Simulator()
        seen = []
        sim.call_at(0.5, seen.append, None)
        sim.run()
        assert seen == [None]
        assert sim.events_processed == 1

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimError):
            sim.call_at(0.5, print, None)


class TestCallAtStopPoints:
    def test_run_until_leaves_later_callbacks_queued(self):
        sim = Simulator()
        log = []
        sim.call_at(1.5, log.append, "at-until")
        sim.call_at(2.0, log.append, "later")
        sim.run(until=1.5)
        assert log == ["at-until"]
        assert sim.now == 1.5
        sim.run()
        assert log == ["at-until", "later"]
        assert sim.now == 2.0

    def test_run_until_process_stops_before_same_time_callback(self):
        """A callback queued for the instant the process finishes, but
        after it, stays queued."""
        sim = Simulator()
        log = []

        def proc():
            yield sim.sleep(1.0)
            sim.call_at(sim.now, log.append, "after-finish")
            return "done"

        p = sim.process(proc())
        assert sim.run_until_process(p) == "done"
        assert log == []
        assert sim.now == 1.0
        sim.run()
        assert log == ["after-finish"]

    def test_run_until_process_limit_with_callbacks_queued(self):
        sim = Simulator()
        gate = sim.event()

        def waiter():
            yield gate

        sim.call_at(10.0, print, None)
        with pytest.raises(SimError, match="time limit"):
            sim.run_until_process(sim.process(waiter()), limit=5.0)


def _net(latency=1.0):
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(latency))
    for name in ("a", "b"):
        net.add_host(name)
    return sim, net


class TestProcessFreeDelivery:
    def test_send_is_one_heap_entry_and_no_process(self):
        sim, net = _net()
        net.send("a", "b", "hello")
        assert len(sim._heap) == 1  # no process bootstrap beside it
        (_when, _seq, fn, _item) = sim._heap[0]
        assert fn.__func__ is Network._deliver
        sim.run()
        assert sim.events_processed == 1

    def test_host_without_handler_drops(self):
        sim, net = _net()
        net.send("a", "b", "dropped")
        sim.run()
        assert net.stats.delivered == 1  # the wire delivered it; nobody listened
        box = mailbox(sim, net.host("b"))
        sim.run(until=1.25)
        net.send("a", "b", "hello")
        sim.run()
        (env,) = box.drain()
        assert isinstance(env, Delivery)
        assert (env.src, env.dst, env.payload) == ("a", "b", "hello")
        assert (env.sent_at, env.delivered_at) == (1.25, 2.25)

    def test_listen_routes_to_handler_and_none_drops(self):
        sim, net = _net()
        b = net.host("b")
        got = []
        b.listen(lambda src, payload, sent_at: got.append((src, payload, sent_at, sim.now)))
        net.send("a", "b", "m1")
        sim.run()
        assert got == [("a", "m1", 0.0, 1.0)]
        b.listen(None)
        net.send("a", "b", "m2")
        sim.run()
        assert len(got) == 1
        assert "receive" not in vars(b)

    def test_target_dying_in_flight_never_reaches_handler(self):
        sim, net = _net()
        got = []
        net.host("b").listen(lambda *m: got.append(m))
        net.send("a", "b", "doomed")
        sim.run(until=0.5)
        net.kill("b")
        sim.run()
        assert got == []
        assert net.stats.dropped_dead == 1 and net.stats.delivered == 0
