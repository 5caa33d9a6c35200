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
* **One queue, one kind of entry.**  Everything the kernel schedules is a
  ``(time, seq, fn, arg)`` heap entry that runs as ``fn(arg)``: a triggered
  event pushes its class's ``_fire`` with itself as ``arg``; process
  bootstrap, interrupts and the wakeup after yielding an already-processed
  event are :meth:`Simulator.call_at` callbacks at the current time.
  :meth:`Simulator._dispatch` pops and calls; :meth:`Simulator.run` and
  :meth:`Simulator.run_until_process` only choose where it stops, and
  every generator step goes through :meth:`Process._resume`.
* **A slot without an entry.**  A seq can be taken without queueing
  anything (``Network.send`` does so for a copy a silent leaf keeps as a
  record, see :mod:`repro.cluster.cmsd`): the owner runs the work later
  in that ``(time, seq)`` order, asking :meth:`Simulator.passed` whether
  the running entry is past it, or queues it in its slot with
  :meth:`Simulator.call_at_seq`.
* **Never allocate on the dispatch path.**  This is the hottest loop in the
  repo (``benchmarks/perf`` tracks it), so the kernel follows the paper's
  allocation discipline: an event's heap entry names the plain ``_fire``
  function (no bound method), and :meth:`Simulator.sleep` hands out pooled
  :class:`Timeout` storage that recycles itself after firing.  Work that
  needs no process at all is a *timed callback*: :meth:`Simulator.call_at`
  puts ``fn(arg)`` on the heap as one tuple — how the network delivers
  every message, how the daemons time their service and run their timers
  (a timer re-arms itself; a stale one checks an epoch and returns), and
  how staging and failure schedules fire.  scalla-lint rule SCA003 keeps
  per-event allocations out of ``_dispatch()``, its wrappers,
  ``call_at()`` and the ``_fire`` methods.

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
from typing import Any, Callable, Generator, Iterable

from repro.sim.errors import Interrupt, SimError

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
        _heappush(sim._heap, (sim._now, sim._seq, _fire_event, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._value is not _PENDING or self._exception is not None:
            raise SimError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._exception = exception
        sim = self.sim
        _heappush(sim._heap, (sim._now, sim._seq, _fire_event, self))
        sim._seq += 1
        return self

    def _fire(self) -> None:
        # callbacks is never None here: the heap holds each event exactly
        # once, so _fire runs at most once per trigger.
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)


#: The heap entry ``fn`` of a triggered plain event (also used by Store):
#: the function itself, so scheduling allocates no bound method.
_fire_event = Event._fire

# The pre-triggered "event" a bootstrap callback hands to Process._resume:
# a generator's first step must be send(None).
_BOOT = Event(None)  # type: ignore[arg-type]
_BOOT._value = None
_BOOT.callbacks = None


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay", "_pending_value")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise SimError(f"invalid timeout {delay}")
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
        _heappush(sim._heap, (sim._now + delay, sim._seq, _fire_timeout, self))
        sim._seq += 1

    def _fire(self) -> None:
        self._value = self._pending_value
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks:
            cb(self)


class _PooledTimeout(Timeout):
    """Kernel-owned :class:`Timeout` storage, recycled after it fires.

    Handed out by :meth:`Simulator.sleep`; :meth:`_fire` returns the
    object to the simulator's free list right after its waiter runs, so
    the caller must *only* yield it and never keep a reference past the
    resume (exactly the ``yield sim.sleep(d)`` idiom).

    Because that contract means at most one waiter — the yielding process
    — the waiter lives in the dedicated ``_waiter`` slot and is resumed
    directly, skipping the callback list entirely.  The list machinery
    still works as a fallback (``_wait_on``'s slow path and condition
    children append to ``callbacks`` like any event) so a stray composite
    over a pooled timeout degrades to correct, not silent.

    Only :meth:`Simulator.sleep` builds and leases this storage.
    """

    __slots__ = ("_cb_store", "_waiter")

    def _fire(self) -> None:
        # Fire, resume the parked waiter, run any fallback callbacks, then
        # recycle the storage.
        self._value = self._pending_value
        callbacks = self.callbacks
        self.callbacks = None
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            waiter._resume(self)
        if callbacks:
            for cb in callbacks:
                cb(self)
            callbacks.clear()
        self.sim._timeout_pool.append(self)


_fire_timeout = Timeout._fire
_fire_pooled = _PooledTimeout._fire
_new_pooled = _PooledTimeout.__new__


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
        # Event.__init__ flattened: one process is born per client
        # operation a workload starts, so spawn cost is hot-path cost.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self.gen = gen
        self._name = name
        self._waiting_on: Event | None = None
        # Kick off at the current time, before any already-scheduled event
        # at a *later* time but after events already queued for now:
        # call_at(now, self._resume, _BOOT), inlined.
        _heappush(sim._heap, (sim._now, sim._seq, self._resume, _BOOT))
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
        sim = self.sim
        sim.call_at(sim._now, self._interrupt_deferred, cause)

    # -- internals ---------------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator by one step, fed *trigger*'s outcome.

        The one resume body: event callbacks, pooled-timeout fires and
        same-time callbacks (bootstrap passes the pre-triggered ``_BOOT``;
        an already-processed wakeup passes the event itself) all enter
        here.  The common wait-on cases are inlined below — a
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
                # Already processed: resume at the current time.
                sim = self.sim
                sim.call_at(sim._now, self._resume, target)
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
            # Already processed: resume at the current time.
            sim = self.sim
            sim.call_at(sim._now, self._resume, target)
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
    """The event loop: a clock and one priority queue.

    ``_heap`` holds ``(time, seq, fn, arg)`` entries ordered by
    ``(time, sequence)``, and dispatching an entry is ``fn(arg)``: a
    triggered event or timeout (``fn`` is its class's ``_fire``, ``arg``
    the event), or a :meth:`call_at` callback.  Work due "now" — process
    bootstrap, interrupts, already-processed wakeups — is a callback at
    the current time, so it runs after everything already queued for now
    and before anything later.

    One loop, :meth:`_dispatch`, drains the heap; :meth:`run` and
    :meth:`run_until_process` only choose where it stops.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._timeout_pool: list[_PooledTimeout] = []
        self._seq = 0
        #: The seq of the heap entry running now (the last one run, outside
        #: :meth:`_dispatch`): with ``_now`` it is the kernel's position, so
        #: a reserved ``(time, seq)`` slot can tell whether it has passed.
        self._seq_now = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    def passed(self, when: float, seq: float) -> bool:
        """True when a heap entry at ``(when, seq)`` would already have run.

        Inside a callback that means "ordered before the running entry";
        between runs, "ordered before the point where the last run stopped".
        """
        return when < self._now or (when == self._now and seq < self._seq_now)

    def attach_observability(self, obs) -> None:
        """Bind *obs* (a :class:`repro.obs.Observability`) to this kernel.

        The hub's clock becomes sim time, and the hub exports
        ``events_processed`` and the queued-entry depth, both read at
        snapshot time — the dispatch loop itself never sees the hub.
        """
        obs.bind_clock(lambda: self._now)
        obs.metrics.pull(
            self,
            counters=[("sim_events_total", "events_processed")],
            gauges=[("sim_heap_depth", lambda sim: len(sim._heap))],
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
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise SimError(f"invalid timeout {delay}")
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
        else:
            t = _new_pooled(_PooledTimeout)
            t.sim = self
            # One callback list per storage, emptied and reused by every
            # lease: one fewer allocation per recycled sleep.
            t._cb_store = []
            t._waiter = None
        t.callbacks = t._cb_store
        t._value = _PENDING
        t._exception = None
        t.delay = delay
        t._pending_value = value
        _heappush(self._heap, (self._now + delay, self._seq, _fire_pooled, t))
        self._seq += 1
        return t

    def process(self, gen: Generator, name: str | None = None) -> Process:
        return Process(self, gen, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------

    def call_at(self, when: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at simulated time *when* (not before now).

        One heap entry and no :class:`Event`: the callback runs in exact
        ``(time, seq)`` order with events and timeouts, but nothing can
        wait on it and it cannot be cancelled — a callback that may have
        gone stale checks for that itself.  The network delivers every
        message this way, the daemons time their service and run their
        timers with it, and ``call_at(now, ...)`` is how the kernel
        schedules work due at the current time.
        """
        if not when >= self._now:  # also rejects NaN
            raise SimError(f"call_at({when}) is in the past (now {self._now})")
        _heappush(self._heap, (when, self._seq, fn, arg))
        self._seq += 1

    def call_at_seq(self, when: float, seq: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Queue ``fn(arg)`` in a ``(when, seq)`` slot taken earlier by
        bumping ``_seq`` without queueing anything (or, for a fractional
        *seq*, between two such slots); the slot must not have passed."""
        if self.passed(when, seq):
            raise SimError(f"slot ({when}, {seq}) has passed (now {self._now})")
        _heappush(self._heap, (when, seq, fn, arg))

    # -- running -----------------------------------------------------------

    def _dispatch(self, until: float, proc: Process | None) -> None:
        """The event loop: run heap entries in (time, seq) order.

        Stops when the heap is empty, when the next entry lies later than
        *until* (it stays queued; the clock stays at the last entry run),
        or — checked before every entry — once *proc* has triggered, so
        same-time entries after its finish stay queued too.

        The heap and ``heappop`` are bound to locals: every
        ``benchmarks/perf`` kernel scenario and every
        ``ScallaCluster.run_process`` round runs here.
        """
        heap = self._heap
        pop = _heappop
        pending = _PENDING
        processed = 0
        try:
            while heap:
                if proc is not None and (
                    proc._value is not pending or proc._exception is not None
                ):
                    return
                if heap[0][0] > until:
                    return
                when, seq, fn, arg = pop(heap)
                self._now = when
                self._seq_now = seq
                processed += 1
                fn(arg)
        finally:
            self.events_processed += processed

    def _check_bound(self, bound: float | None, what: str) -> float:
        if bound is None:
            return _INF
        if not bound >= self._now:  # also rejects NaN
            raise SimError(f"{what}={bound} is in the past (now {self._now})")
        return bound

    def run(self, until: float | None = None) -> None:
        """Run until the heap drains or the clock passes *until*.

        With *until* given, the clock is left exactly at *until* (entries
        scheduled later stay queued), which makes staged test scenarios
        ("run 5 simulated seconds, assert, run more") straightforward.
        *until* must not lie before now.
        """
        self._dispatch(self._check_bound(until, "until"), None)
        if until is not None and until > self._now:
            self._now = until
        # Every entry up to *until* has run: so has every slot reserved so far
        # at or before it.
        self._seq_now = self._seq

    def run_until_process(self, proc: Process, limit: float | None = None) -> Any:
        """Run until *proc* finishes; return its value (raising its error).

        The clock is left at *proc*'s finish time, with every later entry
        still queued.  ``limit`` bounds simulated time as a safety net
        against deadlocked protocols in tests; it must not lie before now.
        """
        self._dispatch(self._check_bound(limit, "limit"), proc)
        if not proc.triggered:
            if not self._heap:
                raise SimError(f"deadlock: {proc.name!r} waits but no events remain")
            raise SimError(f"time limit {limit} exceeded waiting for {proc.name!r}")
        return proc.value
