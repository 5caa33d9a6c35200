"""Synchronization primitives for simulation processes.

Two primitives cover everything the cluster layer needs:

* :class:`Store` — an unbounded FIFO mailbox for processes that wait on
  items with ``item = yield store.get()``.  Network hosts have no mailbox
  of their own (daemons take messages through a handler,
  :meth:`repro.sim.network.Host.listen`); a handler that puts into a Store
  gives a process one.
* :class:`Resource` — a counting semaphore used to model finite server
  capacity (disk streams, CPU slots) so load experiments produce queueing
  rather than infinite parallelism.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.kernel import Event, Simulator
from repro.sim.kernel import _FIRE, _heappush, _PENDING  # hot-path handoff (see Store)

__all__ = ["Store", "Resource"]

_new_event = Event.__new__


class Store:
    """Unbounded FIFO of items; ``get`` events fire in request order.

    Items put while getters wait are handed over immediately (at the same
    simulated time); otherwise they queue.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest waiting getter, if any.

        A hot path (``benchmarks/perf``'s ``store`` scenario), so the
        wakeup inlines ``Event.succeed`` on the getter we just proved
        pending rather than re-checking through the public method.
        """
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._value is not _PENDING or getter._exception is not None:
                continue  # getter was interrupted/abandoned
            getter._value = item
            sim = getter.sim
            _heappush(sim._heap, (sim._now, sim._seq, getter, _FIRE))
            sim._seq += 1
            return
        self._items.append(item)

    def get(self) -> Event:
        """Event yielding the next item (immediately if one is queued)."""
        # Event(...) flattened (one get per consumed message): skip the
        # class-call/__init__ round trip for a plain slot fill.
        ev = _new_event(Event)
        ev.callbacks = []
        ev._exception = None
        sim = ev.sim = self.sim
        items = self._items
        if items:
            # Inlined ev.succeed(...): the event is fresh, provably pending.
            ev._value = items.popleft()
            _heappush(sim._heap, (sim._now, sim._seq, ev, _FIRE))
            sim._seq += 1
        else:
            ev._value = _PENDING
            self._getters.append(ev)
        return ev

    def drain(self) -> list[Any]:
        """Remove and return all queued items without waiting."""
        items = list(self._items)
        self._items.clear()
        return items


class Resource:
    """Counting semaphore with FIFO granting.

    Usage::

        grant = yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        #: Requests waiting for a slot: a deque built the first time one
        #: has to wait (most resources never contend).
        self._waiters: deque[Event] | None = None

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return sum(1 for w in self._waiters or () if not w.triggered)

    @property
    def utilization(self) -> float:
        return self._in_use / self.capacity

    def acquire(self) -> Event:
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        elif self._waiters is not None:
            self._waiters.append(ev)
        else:
            self._waiters = deque((ev,))
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release without acquire")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue
            waiter.succeed()  # hand the slot straight over
            return
        self._in_use -= 1
