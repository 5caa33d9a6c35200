"""Unit tests for the DES kernel."""

import pytest

from repro.obs import Observability
from repro.sim.errors import Interrupt, SimError
from repro.sim.kernel import Simulator


class TestTimeouts:
    def test_clock_advances_to_timeout(self):
        sim = Simulator()
        log = []

        def p():
            yield sim.timeout(2.5)
            log.append(sim.now)

        sim.process(p())
        sim.run()
        assert log == [2.5]

    def test_zero_timeout_fires_at_same_time(self):
        sim = Simulator()
        log = []

        def p():
            yield sim.timeout(0.0)
            log.append(sim.now)

        sim.process(p())
        sim.run()
        assert log == [0.0]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.timeout(-1.0)

    def test_timeout_carries_value(self):
        sim = Simulator()
        got = []

        def p():
            v = yield sim.timeout(1.0, value="hello")
            got.append(v)

        sim.process(p())
        sim.run()
        assert got == ["hello"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        log = []

        def mk(tag):
            def p():
                yield sim.timeout(1.0)
                log.append(tag)

            return p

        for tag in "abc":
            sim.process(mk(tag)())
        sim.run()
        assert log == ["a", "b", "c"]


class TestProcesses:
    def test_join_returns_value(self):
        sim = Simulator()
        results = []

        def child():
            yield sim.timeout(3.0)
            return 42

        def parent():
            v = yield sim.process(child())
            results.append((sim.now, v))

        sim.process(parent())
        sim.run()
        assert results == [(3.0, 42)]

    def test_join_already_finished_process(self):
        sim = Simulator()
        results = []

        def child():
            yield sim.timeout(1.0)
            return "done"

        def parent(proc):
            yield sim.timeout(5.0)
            v = yield proc  # long since finished
            results.append((sim.now, v))

        proc = sim.process(child())
        sim.process(parent(proc))
        sim.run()
        assert results == [(5.0, "done")]

    def test_exception_propagates_to_joiner(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        def parent():
            with pytest.raises(RuntimeError, match="boom"):
                yield sim.process(child())
            return "caught"

        p = sim.process(parent())
        sim.run()
        assert p.value == "caught"

    def test_yielding_non_event_fails_process(self):
        sim = Simulator()

        def p():
            yield 42

        proc = sim.process(p())
        sim.run()
        assert proc.triggered
        with pytest.raises(SimError):
            proc.value

    def test_run_until_process(self):
        sim = Simulator()

        def p():
            yield sim.timeout(2.0)
            return "x"

        assert sim.run_until_process(sim.process(p())) == "x"

    def test_run_until_deadlock_detected(self):
        sim = Simulator()

        def p():
            yield sim.event()  # never triggered

        proc = sim.process(p())
        with pytest.raises(SimError, match="deadlock"):
            sim.run_until_process(proc)

    def test_run_until_process_stops_at_finish(self):
        """The clock stops at the finish time; later events — including
        same-time ones queued after the finishing wakeup — stay queued."""
        sim = Simulator()
        log = []

        def p():
            yield sim.sleep(2.0)
            return "x"

        def other(tag, delay):
            yield sim.sleep(delay)
            log.append(tag)

        proc = sim.process(p())
        sim.process(other("same-time", 2.0))
        sim.process(other("later", 5.0))
        assert sim.run_until_process(proc) == "x"
        assert sim.now == 2.0
        assert log == []
        assert len(sim._heap) == 3  # proc's own trigger + both sleeps
        sim.run()
        assert log == ["same-time", "later"]
        assert sim.now == 5.0

    def test_run_until_process_limit_leaves_events_queued(self):
        sim = Simulator()

        def p():
            yield sim.sleep(10.0)
            return "late"

        def ticker():
            yield sim.sleep(1.0)

        proc = sim.process(p())
        sim.process(ticker())
        with pytest.raises(SimError, match="time limit 3.0 exceeded"):
            sim.run_until_process(proc, limit=3.0)
        assert sim.now == 1.0
        assert len(sim._heap) == 1  # the 10 s sleep
        assert sim.run_until_process(proc) == "late"
        assert sim.now == 10.0

    def test_run_until_process_counts_events_in_observability(self):
        sim = Simulator()
        obs = Observability()
        sim.attach_observability(obs)

        def p():
            yield sim.sleep(1.0)
            yield sim.process(child())

        def child():
            yield sim.timeout(2.0)

        sim.run_until_process(sim.process(p()))
        assert sim.events_processed > 0
        assert obs.metrics.counter_total("sim_events_total") == sim.events_processed

    def test_cross_simulator_event_rejected(self):
        sim1, sim2 = Simulator(), Simulator()

        def p():
            yield sim2.timeout(1.0)

        proc = sim1.process(p())
        sim1.run()
        assert proc.triggered
        with pytest.raises(SimError):
            proc.value


class TestEvents:
    def test_manual_event_signalling(self):
        sim = Simulator()
        gate = sim.event()
        log = []

        def waiter():
            v = yield gate
            log.append((sim.now, v))

        def opener():
            yield sim.timeout(4.0)
            gate.succeed("open")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert log == [(4.0, "open")]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not-an-exception")

    def test_multiple_waiters_all_wake(self):
        sim = Simulator()
        gate = sim.event()
        woken = []

        def waiter(i):
            yield gate
            woken.append(i)

        for i in range(5):
            sim.process(waiter(i))
        sim.process(iter([]) if False else _opener(sim, gate))
        sim.run()
        assert sorted(woken) == [0, 1, 2, 3, 4]


def _opener(sim, gate):
    yield sim.timeout(1.0)
    gate.succeed()


class TestConditions:
    def test_all_of_waits_for_slowest(self):
        sim = Simulator()
        log = []

        def p():
            t1 = sim.timeout(1.0, value="a")
            t2 = sim.timeout(5.0, value="b")
            results = yield sim.all_of([t1, t2])
            log.append((sim.now, sorted(results.values())))

        sim.process(p())
        sim.run()
        assert log == [(5.0, ["a", "b"])]

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        log = []

        def p():
            t1 = sim.timeout(1.0, value="fast")
            t2 = sim.timeout(5.0, value="slow")
            results = yield sim.any_of([t1, t2])
            log.append((sim.now, list(results.values())))

        sim.process(p())
        sim.run()
        assert log == [(1.0, ["fast"])]

    def test_empty_all_of_fires_immediately(self):
        sim = Simulator()
        log = []

        def p():
            yield sim.all_of([])
            log.append(sim.now)

        sim.process(p())
        sim.run()
        assert log == [0.0]


class TestInterrupts:
    def test_interrupt_wakes_sleeper(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as i:
                log.append((sim.now, i.cause))

        def killer(victim):
            yield sim.timeout(2.0)
            victim.interrupt("crash")

        victim = sim.process(sleeper())
        sim.process(killer(victim))
        sim.run()
        assert log == [(2.0, "crash")]

    def test_interrupted_process_can_continue(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass
            yield sim.timeout(1.0)
            log.append(sim.now)

        def killer(victim):
            yield sim.timeout(2.0)
            victim.interrupt()

        victim = sim.process(sleeper())
        sim.process(killer(victim))
        sim.run()
        assert log == [3.0]

    def test_interrupting_dead_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.1)

        p = sim.process(quick())
        sim.run()
        p.interrupt()  # must not raise
        sim.run()

    def test_stale_wakeup_after_interrupt_ignored(self):
        """The timeout the victim was waiting on still fires; it must not
        resume the process a second time."""
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield sim.timeout(10.0)
                log.append("timeout")
            except Interrupt:
                log.append("interrupt")
            yield sim.timeout(20.0)
            log.append("end")

        def killer(victim):
            yield sim.timeout(1.0)
            victim.interrupt()

        victim = sim.process(sleeper())
        sim.process(killer(victim))
        sim.run()
        assert log == ["interrupt", "end"]
        assert sim.now == 21.0


class TestRun:
    def test_run_until_leaves_clock_at_limit(self):
        sim = Simulator()

        def p():
            yield sim.timeout(10.0)

        sim.process(p())
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run()
        assert sim.now == 10.0

    def test_run_empty_heap_until(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_events_processed_counter(self):
        sim = Simulator()

        def p():
            yield sim.timeout(1.0)

        sim.process(p())
        sim.run()
        assert sim.events_processed >= 2


NAN = float("nan")


class TestTimeInputs:
    """NaN never reaches the heap (it would break its order), and a run
    bound behind the clock is an error rather than a silent no-op."""

    def test_nan_delays_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.timeout(NAN)
        with pytest.raises(SimError):
            sim.call_at(NAN, print, None)

        def p():
            yield sim.sleep(1.0)

        sim.process(p())
        sim.run()
        assert sim._timeout_pool  # the next sleep() reuses storage
        with pytest.raises(SimError):
            sim.sleep(NAN)
        assert sim._heap == [] and sim._timeout_pool
        sim._timeout_pool.clear()  # and a cold pool checks too
        with pytest.raises(SimError):
            sim.sleep(NAN)
        assert sim._heap == []

    def test_past_or_nan_until_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        started = []

        def p():
            started.append(sim.now)
            yield sim.timeout(1.0)

        sim.process(p())
        for bad in (4.0, NAN):
            with pytest.raises(SimError, match="in the past"):
                sim.run(until=bad)
        assert started == [] and sim.now == 5.0
        sim.run(until=5.0)  # a bound equal to now runs the same-time work
        assert started == [5.0]

    def test_past_or_nan_limit_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)

        def quick():
            return "done"
            yield  # pragma: no cover - makes this a generator

        for bad in (4.0, NAN):
            proc = sim.process(quick())
            with pytest.raises(SimError, match="in the past"):
                sim.run_until_process(proc, limit=bad)
            assert proc.is_alive
        assert sim.run_until_process(sim.process(quick()), limit=5.0) == "done"
