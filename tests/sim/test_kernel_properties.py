"""Property-based tests of the DES kernel's ordering guarantees."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.errors import Interrupt
from repro.sim.kernel import Simulator
from repro.sim.sync import Store

#: Ways to schedule work for the current instant, and how many heap
#: entries each costs: its own slot, plus the completion event of any
#: process that finishes because of it.
SAME_TIME_ENTRIES = {
    "call_at": 1,
    "succeed": 1,
    "timeout0": 1,
    "sleep0": 1,
    "spawn": 2,  # bootstrap + completion
    "interrupt": 2,  # interrupt delivery + the victim's completion
    "yield_processed": 1,  # the driver's own resume
}


class TestCausalOrdering:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_time_order(self, delays):
        """Whatever order timeouts are created in, wakeups happen in
        nondecreasing time order, and ties preserve creation order."""
        sim = Simulator()
        log = []

        def waiter(i, d):
            yield sim.timeout(d)
            log.append((sim.now, i))

        for i, d in enumerate(delays):
            sim.process(waiter(i, d))
        sim.run()
        times = [t for t, _i in log]
        assert times == sorted(times)
        # Ties keep scheduling order (deterministic heap sequence numbers).
        for (t1, i1), (t2, i2) in zip(log, log[1:]):
            if t1 == t2:
                assert i1 < i2
        assert sim.now == max(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=10.0)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_nested_process_chains_accumulate_time(self, pairs):
        """A parent that awaits a child observes exactly the child's delay."""
        sim = Simulator()
        results = []

        def child(d):
            yield sim.timeout(d)
            return sim.now

        def parent(d1, d2):
            yield sim.timeout(d1)
            start = sim.now
            end = yield sim.process(child(d2))
            results.append((start, end, d2))

        for d1, d2 in pairs:
            sim.process(parent(d1, d2))
        sim.run()
        assert len(results) == len(pairs)
        for start, end, d2 in results:
            assert abs((end - start) - d2) < 1e-12


class TestStoreProperties:
    @given(st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_store_preserves_fifo_for_any_sequence(self, items):
        sim = Simulator()
        store = Store(sim)
        received = []

        def producer():
            for item in items:
                store.put(item)
                yield sim.timeout(0.001)

        def consumer():
            for _ in items:
                v = yield store.get()
                received.append(v)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == items


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_identical_seeds_identical_traces(self, seed):
        """A randomized workload replays bit-identically under one seed."""

        def run_once():
            sim = Simulator()
            rng = random.Random(seed)
            trace = []

            def chatter(i):
                for _ in range(5):
                    yield sim.timeout(rng.random())
                    trace.append((round(sim.now, 12), i))

            for i in range(4):
                sim.process(chatter(i))
            sim.run()
            return trace

        assert run_once() == run_once()


class TestSameTimeOrdering:
    @given(st.lists(st.sampled_from(sorted(SAME_TIME_ENTRIES)), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_same_instant_mix_runs_in_scheduling_order(self, ops):
        """Every way of scheduling work "now" takes the next (time, seq)
        slot of the one queue, so a same-instant mix runs in the order it
        was scheduled, one heap entry each."""
        sim = Simulator()
        log = []
        done = sim.event()
        done.succeed()

        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                log.append(i.cause)

        def spawned(label):
            log.append(label)
            return
            yield  # pragma: no cover - makes this a generator

        victims = [sim.process(victim()) for op in ops if op == "interrupt"]
        sim.run(until=0.5)  # victims parked, `done` processed

        def driver():
            for label, op in enumerate(ops):
                if op == "call_at":
                    sim.call_at(sim.now, log.append, label)
                elif op == "succeed":
                    ev = sim.event()
                    ev.callbacks.append(lambda _e, label=label: log.append(label))
                    ev.succeed()
                elif op in ("timeout0", "sleep0"):
                    ev = sim.timeout(0.0) if op == "timeout0" else sim.sleep(0.0)
                    ev.callbacks.append(lambda _e, label=label: log.append(label))
                elif op == "spawn":
                    sim.process(spawned(label))
                elif op == "interrupt":
                    victims.pop().interrupt(label)
                else:
                    yield done
                    log.append(label)

        before = sim.events_processed
        sim.process(driver())
        sim.run(until=0.5)
        assert log == list(range(len(ops)))
        expected = 2 + sum(SAME_TIME_ENTRIES[op] for op in ops)  # + driver boot/finish
        assert sim.events_processed - before == expected
        assert sim.now == 0.5
