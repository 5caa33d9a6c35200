"""Edge cases for same-time callbacks and the pooled-timeout path.

The kernel has one queue: process bootstrap, interrupt delivery and the
wakeup after yielding an already-processed event are
``Simulator.call_at(now, ...)`` callbacks, which take the same
``(time, seq)`` slot a throwaway bootstrap/poke ``Event`` would; sleeping
processes park in a pooled timeout's ``_waiter`` slot.  These tests pin
the behaviors most at risk there: interrupts racing in-flight same-time
callbacks, yielding an event that already fired, conditions over mixed
fired/pending children, and — most importantly — that dispatch ordering
is *identical* to what the allocated-event design produced.
"""

import pytest

from repro.sim.errors import Interrupt
from repro.sim.kernel import Event, Simulator


class TestInterruptWhileDeferredInFlight:
    def test_interrupt_beats_pending_bootstrap(self):
        """A process interrupted before its bootstrap callback runs.

        ``sim.process()`` queues the first resume as a callback; an
        interrupt queued right after must still arrive as an Interrupt at
        the generator's first yield point, not crash or double-resume.
        """
        sim = Simulator()
        log = []

        def victim():
            try:
                yield sim.sleep(10.0)
                log.append("slept")
            except Interrupt as i:
                log.append(("interrupted", i.cause, sim.now))

        def aggressor(proc):
            proc.interrupt(cause="early")
            yield sim.sleep(0.0)

        p = sim.process(victim())
        sim.process(aggressor(p))
        sim.run()
        assert log == [("interrupted", "early", 0.0)]

    def test_interrupt_while_ring_wakeup_in_flight(self):
        """Trigger + interrupt queued for the same instant: trigger wins.

        The waiter's wakeup is queued (its event succeeded) before the
        interrupter's callback; the sequence discipline means the
        wakeup resumes the process first, and the later Interrupt lands at
        the *next* yield point.
        """
        sim = Simulator()
        log = []
        gate = sim.event()

        def waiter():
            try:
                got = yield gate
                log.append(("woke", got, sim.now))
                yield sim.sleep(5.0)
                log.append("finished sleep")
            except Interrupt:
                log.append(("interrupted", sim.now))

        def aggressor(proc):
            yield sim.sleep(1.0)
            gate.succeed("payload")   # waiter's resume enters the queue...
            proc.interrupt()          # ...then the interrupt is queued

        p = sim.process(waiter())
        sim.process(aggressor(p))
        sim.run()
        assert log == [("woke", "payload", 1.0), ("interrupted", 1.0)]

    def test_interrupt_to_death_cancels_in_flight_wakeup(self):
        """A wakeup already queued must not resurrect a dead process.

        The interrupt kills the process (it does not catch Interrupt)
        while its event wakeup is still queued; the stale wakeup must
        notice the process is dead and do nothing.
        """
        sim = Simulator()
        log = []
        gate = sim.event()

        def fragile():
            got = yield gate  # no except: Interrupt kills the process
            log.append(("woke", got))

        def aggressor(proc):
            yield sim.sleep(1.0)
            proc.interrupt()          # throw queued first: kills fragile
            gate.succeed("too-late")  # wakeup fires after death
            yield sim.sleep(1.0)
            log.append(("alive", proc.is_alive))

        p = sim.process(fragile())
        sim.process(aggressor(p))
        sim.run()
        assert log == [("alive", False)]
        assert isinstance(p._exception, Interrupt)

    def test_interrupt_while_sleeping_detaches_pooled_waiter(self):
        """Interrupting a sleeper must clear the pooled timeout's _waiter.

        Otherwise the timeout still fires at its scheduled time and
        resumes a process that long since moved on — and the recycled
        timeout would carry a stale waiter into its next use.
        """
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.sleep(10.0)
                log.append("overslept")
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield sim.sleep(1.0)
            log.append(("resumed", sim.now))

        def aggressor(proc):
            yield sim.sleep(2.0)
            proc.interrupt()

        p = sim.process(sleeper())
        sim.process(aggressor(p))
        sim.run()
        # One interrupt, one clean resume; the orphaned 10.0 timeout fires
        # into the void without waking anyone.
        assert log == [("interrupted", 2.0), ("resumed", 3.0)]
        assert sim.now == 10.0  # the detached timeout still drains the heap


class TestYieldAlreadyProcessed:
    def test_yield_processed_event_resumes_with_value(self):
        """Yielding an event that already fired resumes via a callback,
        carrying the event's stored value, at the current time."""
        sim = Simulator()
        log = []
        ev = sim.event()
        ev.succeed(42)

        def late():
            yield sim.sleep(3.0)  # ev is processed long before this wakes
            got = yield ev
            log.append((got, sim.now))

        sim.process(late())
        sim.run()
        assert log == [(42, 3.0)]

    def test_yield_processed_failed_event_raises(self):
        sim = Simulator()
        log = []
        ev = sim.event()
        ev.fail(RuntimeError("boom"))

        def late():
            yield sim.sleep(1.0)
            try:
                yield ev
            except RuntimeError as err:
                log.append((str(err), sim.now))

        sim.process(late())
        sim.run()
        assert log == [("boom", 1.0)]

    def test_processed_wakeup_ordering_vs_fresh_spawn(self):
        """A wakeup from a processed event keeps FIFO order against other
        callbacks queued at the same instant."""
        sim = Simulator()
        log = []
        ev = sim.event()
        ev.succeed("old")

        def a():
            yield ev
            log.append("a")

        def b():
            yield from ()
            log.append("b")

        def driver():
            yield sim.sleep(1.0)
            sim.process(a())  # bootstrap queued, then waits on ev → queued again
            sim.process(b())  # bootstrap queued after a's
            yield sim.sleep(0.0)

        sim.process(driver())
        sim.run()
        # b's bootstrap entry was queued before a's processed-event wakeup.
        assert log == ["b", "a"]


class TestAnyOfMixedChildren:
    def test_any_of_with_already_fired_child_triggers_immediately(self):
        sim = Simulator()
        log = []
        done = sim.event()
        done.succeed("ready")

        def p():
            pending = sim.timeout(50.0)
            results = yield sim.any_of([done, pending])
            log.append((results, sim.now))

        sim.process(p())
        sim.run()
        assert log == [({done: "ready"}, 0.0)]

    def test_any_of_with_already_failed_child_raises(self):
        sim = Simulator()
        log = []
        dead = sim.event()
        dead.fail(ValueError("bad child"))

        def p():
            try:
                yield sim.any_of([dead, sim.timeout(50.0)])
            except ValueError as err:
                log.append(str(err))

        sim.process(p())
        sim.run()
        assert log == ["bad child"]

    def test_any_of_mixed_reports_only_done_children(self):
        sim = Simulator()
        log = []

        def p():
            fast = sim.timeout(1.0, value="fast")
            slow = sim.timeout(9.0, value="slow")
            fired = sim.event()
            fired.succeed("pre")
            results = yield sim.any_of([fast, slow, fired])
            log.append((sorted(results.values()), sim.now))

        sim.process(p())
        sim.run()
        # The pre-fired child wins at t=0; the pending timeouts are absent.
        assert log == [(["pre"], 0.0)]

    def test_all_of_mixed_waits_for_pending(self):
        sim = Simulator()
        log = []

        def p():
            fired = sim.event()
            fired.succeed(1)
            t = sim.timeout(4.0, value=2)
            results = yield sim.all_of([fired, t])
            log.append((sorted(results.values()), sim.now))

        sim.process(p())
        sim.run()
        assert log == [([1, 2], 4.0)]


class TestIdenticalOrdering:
    """Same-time callbacks must reproduce the allocated-event design's
    order exactly: global (time, seq) order, stamped at queue time."""

    def test_same_time_mixed_sources_run_in_seq_order(self):
        sim = Simulator()
        log = []

        def worker(tag):
            yield from ()
            log.append(tag)

        def ticker(tag, delay):
            yield sim.sleep(delay)
            log.append(tag)

        def driver():
            yield sim.sleep(1.0)
            # All at t=1.0 — four bootstraps in strict creation order.
            sim.process(ticker("t-a", 0.0))   # seq n
            sim.process(worker("w-a"))        # seq n+1
            sim.process(ticker("t-b", 0.0))   # seq n+2
            sim.process(worker("w-b"))        # seq n+3
            yield sim.sleep(0.0)
            log.append("driver-done")

        sim.process(driver())
        sim.run()
        # Strict (time, seq) order at t=1.0: the four bootstraps run
        # first (the workers finish outright; the tickers only advance to
        # their yield, queueing zero-timeouts with *later* sequence
        # numbers), then driver's sleep(0.0) (queued before the tickers'
        # timeouts) and finally the tickers.
        assert log == ["w-a", "w-b", "driver-done", "t-a", "t-b"]

    def test_interrupt_and_succeed_ordering_is_fifo(self):
        sim = Simulator()
        log = []
        gates = [sim.event() for _ in range(3)]

        def waiter(i):
            try:
                got = yield gates[i]
                log.append((i, got))
            except Interrupt:
                log.append((i, "interrupted"))

        procs = [sim.process(waiter(i)) for i in range(3)]

        def driver():
            yield sim.sleep(1.0)
            gates[1].succeed("g1")   # seq k
            procs[0].interrupt()     # seq k+1
            gates[2].succeed("g2")   # seq k+2

        sim.process(driver())
        sim.run()
        assert log == [(1, "g1"), (0, "interrupted"), (2, "g2")]

    def test_deterministic_across_runs(self):
        """Same program, two fresh simulators → identical event ordering."""

        def program():
            sim = Simulator()
            log = []

            def churn(i):
                yield sim.sleep(float(i % 3))
                log.append(("churn", i, sim.now))
                child = sim.process(leaf(i))
                yield child
                log.append(("joined", i, sim.now))

            def leaf(i):
                yield sim.sleep(0.0)
                log.append(("leaf", i, sim.now))

            for i in range(6):
                sim.process(churn(i))
            sim.run()
            return log, sim.events_processed

        first = program()
        second = program()
        assert first == second

    def test_chunked_driving_matches_run(self):
        """run() in one go and run(until=...)/run_until_process chunks
        dispatch the same events in the same order."""

        def build():
            sim = Simulator()
            log = []

            def p(i):
                yield sim.sleep(float(i))
                log.append((i, sim.now))
                ev = sim.event()
                ev.succeed(i)
                yield sim.sleep(0.0)  # ev fires first: the next wait is a processed wakeup
                got = yield ev
                log.append(("done", got, sim.now))
                return got

            procs = [sim.process(p(i)) for i in range(4)]
            return sim, log, procs

        sim_a, log_a, _ = build()
        sim_a.run()

        sim_b, log_b, procs = build()
        sim_b.run(until=0.5)
        assert sim_b.run_until_process(procs[1]) == 1
        sim_b.run(until=2.0)
        assert sim_b.run_until_process(procs[3]) == 3
        sim_b.run()
        assert log_a == log_b
        assert sim_a.events_processed == sim_b.events_processed


class TestPooledTimeoutReuse:
    def test_recycled_timeout_carries_no_stale_state(self):
        """Reused pool storage must carry only its own delay/value.

        A fired timeout is recycled *after* its waiter resumes, so a chain
        of sleeps reuses the first object on the third sleep: sleep-2
        allocates while sleep-1 is still being fired, then sleep-1's
        storage lands in the pool and sleep-3 picks it up.
        """
        sim = Simulator()
        log = []
        timeouts = []

        def p():
            for delay, value in [(1.0, "a"), (2.0, "b"), (3.0, "c")]:
                t = sim.sleep(delay, value=value)
                timeouts.append(t)
                got = yield t
                log.append((got, sim.now))

        sim.process(p())
        sim.run()
        assert log == [("a", 1.0), ("b", 3.0), ("c", 6.0)]
        # Identity proof of recycling: the third sleep got the first
        # object's storage back, with none of its old state.
        assert timeouts[2] is timeouts[0]
        assert timeouts[1] is not timeouts[0]
        assert len(sim._timeout_pool) == 2

    def test_external_event_not_pooled(self):
        """Plain Events constructed by user code never enter the pool."""
        sim = Simulator()
        ev = Event(sim)
        ev.succeed()

        def p():
            yield ev

        sim.process(p())
        sim.run()
        assert sim._timeout_pool == []
