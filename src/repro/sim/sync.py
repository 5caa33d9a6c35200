"""A mailbox for simulation processes.

:class:`Store` is an unbounded FIFO for processes that wait on items with
``item = yield store.get()``.  Network hosts have no mailbox of their own
(daemons take messages through a handler,
:meth:`repro.sim.network.Host.listen`, and model finite capacity with
their own service timers); a handler that puts into a Store gives a
process one.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.kernel import Event, Simulator
from repro.sim.kernel import _fire_event, _heappush, _PENDING  # hot-path handoff (see Store)

__all__ = ["Store"]

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
            _heappush(sim._heap, (sim._now, sim._seq, _fire_event, getter))
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
            _heappush(sim._heap, (sim._now, sim._seq, _fire_event, ev))
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
