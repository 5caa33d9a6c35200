"""A mailbox probe for tests that talk to daemons over the network.

A host has one delivery path: the handler installed with
:meth:`repro.sim.network.Host.listen` (with none, messages are dropped).
A test endpoint that wants to wait for replies listens with a handler that
records each delivery in a :class:`~repro.sim.sync.Store`; a process takes
them with ``d = yield box.get()``, and ``box.drain()`` empties it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.kernel import Simulator
from repro.sim.network import Host
from repro.sim.sync import Store


@dataclass(frozen=True)
class Delivery:
    """One message as the probe saw it arrive."""

    src: str
    dst: str
    payload: Any
    sent_at: float
    delivered_at: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at


def mailbox(sim: Simulator, host: Host) -> Store:
    """Make *host* queue every message it receives as a :class:`Delivery`."""
    box = Store(sim)
    dst = host.name
    host.listen(
        lambda src, payload, sent_at: box.put(Delivery(src, dst, payload, sent_at, sim.now))
    )
    return box
