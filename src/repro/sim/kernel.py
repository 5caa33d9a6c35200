"""A deterministic discrete-event simulation kernel.

The cluster experiments need thousand-client concurrency, microsecond
latencies and reproducible failure schedules — none of which are practical
(or convincing) with real threads and real sockets in Python.  No DES
library is available offline, so this module implements one from scratch in
the style of SimPy: *processes* are plain generators that ``yield`` the
events they wait on, and a single-threaded scheduler advances a virtual
clock from event to event.

Design rules:

* **Determinism.**  The event heap is ordered by ``(time, sequence)``;
  simultaneous events fire in scheduling order.  All randomness enters
  through explicitly seeded ``random.Random`` instances owned by the caller.
* **No wall clock.**  ``sim.now`` is the only time there is.  Virtual time
  advances instantaneously between events, so an 8-hour cache lifetime costs
  nothing to simulate.
* **Small surface.**  Processes wait on: a :class:`Timeout`, another
  :class:`Process` (join), a bare :class:`Event` (signal), or the composite
  :class:`AnyOf` / :class:`AllOf`.  That is enough to express every protocol
  in the paper.
* **One dispatch loop, one resume path.**  :meth:`Simulator._dispatch`
  services every event; :meth:`Simulator.run` and
  :meth:`Simulator.run_until_process` only choose where it stops, and
  every generator step goes through :meth:`Process._resume`.
* **Never allocate on the dispatch path.**  This is the hottest loop in the
  repo (``benchmarks/perf`` tracks it), so the kernel follows the paper's
  allocation discipline: process bootstrap, interrupt delivery and
  already-processed wakeups go through a *deferred-resume ring* — a FIFO of
  ``(seq, fn, arg)`` tuples serviced in exact ``(time, seq)`` order with
  the heap — instead of allocating throwaway ``Event`` objects, and
  :meth:`Simulator.sleep` hands out pooled :class:`Timeout` storage that the
  dispatch loop recycles after firing.  scalla-lint rule SCA003 keeps
  per-event allocations out of ``_dispatch()`` and its wrappers.

Example::

    sim = Simulator()

    def pinger():
        yield sim.timeout(1.0)
        return "pong"

    def waiter():
        result = yield sim.process(pinger())
        assert sim.now == 1.0 and result == "pong"

    sim.process(waiter())
    sim.run()
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.sim.errors import Interrupt, SimError, StopSimulation

__all__ = ["Event", "Timeout", "Process", "AnyOf", "AllOf", "Simulator"]

_PENDING = object()
_INF = float("inf")

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A one-shot occurrence processes can wait on.

    Events start *pending*; :meth:`succeed` or :meth:`fail` triggers them,
    after which every waiting callback runs at the current simulation time.
    Triggering twice is an error — it would mean two owners disagree about
    what happened.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = _PENDING
        self._exception: BaseException | None = None

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def value(self) -> Any:
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimError("event value read before trigger")
        return self._value

    @property
    def ok(self) -> bool:
        """True when triggered successfully (safe to read ``value``)."""
        return self._value is not _PENDING and self._exception is None

    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _PENDING or self._exception is not None:
            raise SimError("event already triggered")
        self._value = value
        sim = self.sim
        _heappush(sim._heap, (sim._now, sim._seq, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _PENDING or self._exception is not None:
            raise SimError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._exception = exception
        sim = self.sim
        _heappush(sim._heap, (sim._now, sim._seq, self))
        sim._seq += 1
        return self

    def _fire(self) -> None:
        # callbacks is never None here: the heap holds each event exactly
        # once, so _fire runs at most once per trigger.
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)


# The pre-triggered "event" a bootstrap ring entry hands to
# Process._resume: a generator's first step must be send(None).
_BOOT = Event(None)  # type: ignore[arg-type]
_BOOT._value = None
_BOOT.callbacks = None


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay", "_pending_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimError(f"negative timeout {delay}")
        # Event.__init__ and the heap push, flattened: a Timeout is born
        # once per simulated delay, squarely on the hot path.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self.delay = delay
        # The value is deferred until the heap pops us: a Timeout must not
        # look triggered before its time arrives (AnyOf inspects children).
        self._pending_value = value
        _heappush(sim._heap, (sim._now + delay, sim._seq, self))
        sim._seq += 1

    def _fire(self) -> None:
        self._value = self._pending_value
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)


class _PooledTimeout(Timeout):
    """Kernel-owned :class:`Timeout` storage, recycled after dispatch.

    Handed out by :meth:`Simulator.sleep`; the dispatch loop returns the
    object to the simulator's free list right after its waiter runs, so
    the caller must *only* yield it and never keep a reference past the
    resume (exactly the ``yield sim.sleep(d)`` idiom).

    Because that contract means at most one waiter — the yielding process
    — the waiter lives in the dedicated ``_waiter`` slot and is resumed
    directly, skipping the callback list entirely.  The list machinery
    still works as a fallback (``_wait_on``'s slow path and condition
    children append to ``callbacks`` like any event) so a stray composite
    over a pooled timeout degrades to correct, not silent.

    Firing and recycling live inline in :meth:`Simulator._dispatch`, the
    only code that fires heap events; this class adds no ``_fire``.
    """

    __slots__ = ("_cb_store", "_waiter")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        Timeout.__init__(self, sim, delay, value)
        self._waiter: Process | None = None


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields events; when a yielded event triggers, the
    generator resumes with the event's value (or the event's exception is
    thrown into it).  The process's own event value is the generator's
    return value, so ``result = yield sim.process(g())`` both joins and
    collects.
    """

    __slots__ = ("gen", "_send", "_name", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str | None = None) -> None:
        try:
            # Bind send once: every resume uses it, and the fetch doubles
            # as the "is this a generator" check.
            self._send = gen.send
        except AttributeError:
            raise TypeError(
                f"process body must be a generator, got {type(gen).__name__}"
            ) from None
        # Event.__init__ flattened: one process is born per simulated
        # request in the cluster layer, so spawn cost is hot-path cost.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self.gen = gen
        self._name = name
        self._waiting_on: Event | None = None
        # Kick off at the current time, before any already-scheduled event
        # at a *later* time but after events already queued for now.  Goes
        # through the deferred-resume ring: same (time, seq) slot a
        # bootstrap Event would occupy, without allocating one.
        sim._ready.append((sim._seq, self._resume, _BOOT))
        sim._seq += 1

    @property
    def name(self) -> str:
        """Diagnostic label; resolved lazily — it only matters in errors."""
        return self._name or getattr(self.gen, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING and self._exception is None

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A dead process is left alone (interrupting a finished server during
        teardown should be a no-op, not a crash).
        """
        if self._value is not _PENDING or self._exception is not None:
            return
        self.sim._defer(self._interrupt_deferred, cause)

    # -- internals ---------------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator by one step, fed *trigger*'s outcome.

        The one resume body: event callbacks, pooled-timeout fires and
        deferred-resume ring entries (bootstrap passes the pre-triggered
        ``_BOOT``; an already-processed wakeup passes the event itself)
        all enter here.  The common wait-on cases are inlined below — a
        pooled timeout parks in its ``_waiter`` slot, other same-sim
        events get the callback — and :meth:`_wait_on` remains the slow
        path for yield errors.
        """
        if self._value is not _PENDING or self._exception is not None:
            return  # interrupted to death while this wakeup was in flight
        self._waiting_on = None
        try:
            exc = trigger._exception
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                # _value is never _PENDING here: a failed trigger carries
                # its exception and takes the throw branch above.
                target = self._send(trigger._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - process died; propagate via event
            self.fail(err)
            return
        if target.__class__ is _PooledTimeout and target.sim is self.sim:
            self._waiting_on = target
            target._waiter = self
        elif isinstance(target, Event) and target.sim is self.sim:
            self._waiting_on = target
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
            else:
                # Already processed: resume now, via the ring.
                self.sim._defer(self._resume, target)
        else:
            self._wait_on(target)

    def _interrupt_deferred(self, cause: object) -> None:
        self._throw(Interrupt(cause))

    def _throw(self, exc: BaseException) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        # Detach from whatever we were waiting on; its later trigger must
        # not resume us twice.
        waiting = self._waiting_on
        self._waiting_on = None
        if waiting is not None:
            if waiting.__class__ is _PooledTimeout and waiting._waiter is self:
                waiting._waiter = None
            elif waiting.callbacks is not None:
                try:
                    waiting.callbacks.remove(self._resume)
                except ValueError:
                    pass
        try:
            target = self.gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001
            self.fail(err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._throw(SimError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target.sim is not self.sim:
            self._throw(SimError("yielded event belongs to a different simulator"))
            return
        self._waiting_on = target
        if target.callbacks is None:
            # Already processed: resume now, via the ring.
            self.sim._defer(self._resume, target)
        else:
            target.callbacks.append(self._resume)


class _Condition(Event):
    """Shared machinery for AnyOf/AllOf."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        self._pending = len(self.events)
        for ev in self.events:
            if ev.callbacks is None:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.ok}

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when the first of its events does (value: dict of done)."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers when all of its events have (value: dict of all values)."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class Simulator:
    """The event loop: a clock, a priority queue, and the deferred ring.

    Two dispatch sources, serviced in exact ``(time, seq)`` order:

    * ``_heap`` — triggered events and timeouts, ordered by
      ``(time, sequence)``;
    * ``_ready`` — the deferred-resume ring: immediate callbacks (process
      bootstrap, interrupts, already-processed wakeups) recorded as
      ``(seq, fn, arg)`` tuples.  Ring entries are always stamped at the
      current time, so the ring is FIFO and an entry runs before any heap
      event at a later time and interleaves by sequence number with heap
      events at the same time — bit-identical ordering to the throwaway
      bootstrap/poke ``Event`` objects it replaced, without the
      allocation.

    Both sources are drained by one loop, :meth:`_dispatch`; :meth:`run`
    and :meth:`run_until_process` only choose where it stops.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._ready: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        self._timeout_pool: list[_PooledTimeout] = []
        self._seq = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    def attach_observability(self, obs) -> None:
        """Bind *obs* (a :class:`repro.obs.Observability`) to this kernel.

        The hub's clock becomes sim time, and the hub exports
        ``events_processed`` and the queued-event depth (heap plus ring,
        so the depth matches what a heap-only kernel reported), both read
        at snapshot time — the dispatch loop itself never sees the hub.
        """
        obs.bind_clock(lambda: self._now)
        obs.metrics.pull(
            self,
            counters=[("sim_events_total", "events_processed")],
            gauges=[("sim_heap_depth", lambda sim: len(sim._heap) + len(sim._ready))],
        )

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled :class:`Timeout` for the ``yield sim.sleep(d)`` idiom.

        Behaves exactly like :meth:`timeout`, but the returned object is
        kernel-owned storage that is recycled right after its callbacks
        run.  Use it when the timeout is yielded immediately and never
        stored, compared, or combined (no ``AnyOf``/``AllOf`` children,
        no keeping it across a resume) — the pattern of every
        fire-and-forget delay on the hot path.  Owners that need the
        object afterwards keep using :meth:`timeout`.
        """
        pool = self._timeout_pool
        if not pool:
            return _PooledTimeout(self, delay, value)
        if delay < 0:
            raise SimError(f"negative timeout {delay}")
        t = pool.pop()
        t.callbacks = t._cb_store
        t._value = _PENDING
        t._exception = None
        t.delay = delay
        t._pending_value = value
        _heappush(self._heap, (self._now + delay, self._seq, t))
        self._seq += 1
        return t

    def process(self, gen: Generator, name: str | None = None) -> Process:
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _defer(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` at the current time, next sequence.

        The ring equivalent of enqueueing an immediately-succeeded Event:
        same position in the global (time, seq) order, no allocation
        beyond the ring tuple itself.
        """
        self._ready.append((self._seq, fn, arg))
        self._seq += 1

    # -- running -----------------------------------------------------------

    def _dispatch(self, until: float, proc: Process | None) -> None:
        """The event loop: service heap and ring in exact (time, seq) order.

        Stops when both queues are empty, when the next heap event lies
        later than *until* (it stays queued; the clock stays at the last
        event run), or — checked before every event — once *proc* has
        triggered, so same-time events after its finish stay queued too.

        Heap ops, queues and the pool are bound to locals: every
        ``benchmarks/perf`` kernel scenario and every
        ``ScallaCluster.run_process`` round runs here.
        """
        heap = self._heap
        ready = self._ready
        pool = self._timeout_pool
        pop = _heappop
        popleft = ready.popleft
        pooled = _PooledTimeout
        pending = _PENDING
        processed = 0
        try:
            while heap or ready:
                if proc is not None and (
                    proc._value is not pending or proc._exception is not None
                ):
                    return
                if ready and (not heap or heap[0][0] > self._now or heap[0][1] > ready[0][0]):
                    _seq, fn, arg = popleft()
                    processed += 1
                    fn(arg)
                    continue
                if heap[0][0] > until:
                    return
                when, _seq, event = pop(heap)
                self._now = when
                processed += 1
                if event.__class__ is not pooled:
                    event._fire()
                    continue
                # Pooled timeout: fire, resume the parked waiter, run any
                # fallback callbacks, then recycle the storage.
                event._value = event._pending_value
                callbacks = event.callbacks
                event.callbacks = None
                waiter = event._waiter
                if waiter is not None:
                    event._waiter = None
                    waiter._resume(event)
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                    callbacks.clear()
                # Keep the (empty) callback list for the next lease of
                # this storage — one fewer allocation per recycled sleep.
                event._cb_store = callbacks
                pool.append(event)
        finally:
            self.events_processed += processed

    def run(self, until: float | None = None) -> None:
        """Run until the queues drain or the clock passes *until*.

        With *until* given, the clock is left exactly at *until* (events
        scheduled later stay queued), which makes staged test scenarios
        ("run 5 simulated seconds, assert, run more") straightforward.
        A :class:`StopSimulation` raised by a callback ends the run early.
        """
        try:
            self._dispatch(_INF if until is None else until, None)
        except StopSimulation:
            return
        if until is not None and until > self._now:
            self._now = until

    def run_until_process(self, proc: Process, limit: float | None = None) -> Any:
        """Run until *proc* finishes; return its value (raising its error).

        The clock is left at *proc*'s finish time, with every later event
        still queued.  ``limit`` bounds simulated time as a safety net
        against deadlocked protocols in tests.
        """
        self._dispatch(_INF if limit is None else limit, proc)
        if not proc.triggered:
            if not self._heap and not self._ready:
                raise SimError(f"deadlock: {proc.name!r} waits but no events remain")
            raise SimError(f"time limit {limit} exceeded waiting for {proc.name!r}")
        return proc.value
