"""The simulated network: hosts, links, partitions, and message delivery.

A :class:`Host` is a named endpoint.  The :class:`Network` delivers
messages between hosts after a sampled link latency, drops traffic to dead
or partitioned hosts, and counts everything — message counts are primary
data for the protocol-efficiency experiment (E7) and the registration
experiment (E11).

A copy of a message is normally one kernel callback
(:meth:`~repro.sim.kernel.Simulator.call_at`): at the arrival time the
network calls the target's ``receive(src, payload, sent_at)``.  The cluster
daemons (cmsd, xrootd, cnsd, client) install their message handler there
with :meth:`Host.listen`; a host with no handler drops the message, as a
closed port would.  There is no second delivery path: code that wants a
mailbox listens with a handler that puts into a
:class:`~repro.sim.sync.Store`.

The one exception is a *kept* copy.  A host's daemon may register an offer
hook (:meth:`Network.set_offer`); :meth:`Network.send` shows it every copy
after counting it and drawing its latency and chaos.  A copy the hook
accepts stays with the network, in a per-host heap ordered by the
``(arrival, seq)`` slot the kernel reserved for it, and costs no heap
entry: the server cmsd accepts the ``QueryFile``s it will not answer.  The
network owns those copies until they are delivered.  It replays the ones
whose slots have passed with :meth:`Network._deliver`'s drop rules and
delivery counters, and with :attr:`Network.replaying` naming the slot, so
the receiver can serve the copy as of its arrival.  That happens when the
host asks (:meth:`Network.catch_up`), before it keeps another copy,
before anything that changes what an arrival sees — a kill, revive,
partition, heal or isolation — and before :attr:`Network.stats` is read.
When the host wants its copies delivered as ordinary entries again
(:meth:`Network.release`, or removing the hook), the network replays the
passed ones and queues the rest in their reserved slots.

Message payloads are opaque to the network; the cluster layer defines its
own message dataclasses (:mod:`repro.cluster.protocol`).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed, LatencyModel

__all__ = ["Host", "NetworkStats", "ChaosConfig", "Network"]

_heappush = heapq.heappush
_heappop = heapq.heappop


@dataclass
class ChaosConfig:
    """Gray-failure injection knobs: the failures that are not clean crashes.

    Every probability is per message.  Chaos draws come from a dedicated
    RNG (seeded here), fully separate from the latency RNG — with every
    knob at zero the chaos path draws *nothing*, so event streams stay
    bit-identical to a run built without chaos at all.
    """

    #: Probability a message silently vanishes on the wire.
    drop_prob: float = 0.0
    #: Probability a message is delivered twice (second copy re-samples
    #: its own latency — duplicates arrive out of order).
    dup_prob: float = 0.0
    #: Probability a message eats an extra delay spike.
    delay_spike_prob: float = 0.0
    #: Maximum spike size (seconds); actual spike is uniform in (0, max).
    delay_spike: float = 0.05
    #: Seed for the dedicated chaos RNG.
    seed: int = 0

    @property
    def enabled(self) -> bool:
        return self.drop_prob > 0 or self.dup_prob > 0 or self.delay_spike_prob > 0


@dataclass
class NetworkStats:
    sent: int = 0
    delivered: int = 0
    dropped_dead: int = 0
    dropped_partition: int = 0
    bytes_sent: int = 0
    #: Messages the chaos layer ate, duplicated, or spiked (gray failures).
    chaos_dropped: int = 0
    chaos_duplicated: int = 0
    chaos_delayed: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_dead + self.dropped_partition + self.chaos_dropped


class Host:
    """A network endpoint.  ``alive`` gates delivery; daemons also watch it.

    A host is its name, its liveness and its handler.  A daemon that wants
    some copies kept on the wire instead of queued registers an offer hook
    for its host with :meth:`Network.set_offer`; the network keeps the hook
    and the copies, so a host carries nothing extra.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.alive = True

    def receive(self, src: str, payload: Any, sent_at: float) -> None:
        """Take delivery of one message: with no handler, drop it.

        :meth:`listen` replaces this with a daemon's message handler.
        """

    def listen(self, handler: Callable[[str, Any, float], None] | None) -> None:
        """Deliver to ``handler(src, payload, sent_at)`` from now on; None
        goes back to dropping (a stopped daemon's host)."""
        if handler is None:
            self.__dict__.pop("receive", None)
        else:
            self.receive = handler

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Host {self.name} {state}>"


class Network:
    """Delivers messages between registered hosts.

    Per-link latency overrides allow modelling WAN federations (a manager in
    one country, servers in another — §IV-A's deployments); the default
    model applies everywhere else.  Partitions are symmetric: a partitioned
    pair drops traffic both ways, which is how the failure-injection
    experiments model switch failures distinct from host crashes.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        default_latency: LatencyModel | None = None,
        rng: random.Random | None = None,
        chaos: ChaosConfig | None = None,
        obs=None,
    ) -> None:
        self.sim = sim
        self.default_latency = default_latency if default_latency is not None else Fixed(10e-6)
        self.rng = rng if rng is not None else random.Random(0)
        self.hosts: dict[str, Host] = {}
        self._link_latency: dict[tuple[str, str], LatencyModel] = {}
        self._host_site: dict[str, str] = {}
        self._site_latency: dict[frozenset[str], LatencyModel] = {}
        self._partitioned: set[frozenset[str]] = set()
        #: One-sided partitions: (src, dst) pairs whose src->dst direction
        #: is black-holed while dst->src still flows — the asymmetric-route
        #: failure symmetric partitions cannot model.
        self._partitioned_oneway: set[tuple[str, str]] = set()
        #: Isolated hosts: alive (daemons keep running) but all traffic to
        #: *and* from them is dropped — a gray failure, not a crash.
        self._isolated: set[str] = set()
        self.chaos = chaos if chaos is not None and chaos.enabled else None
        self._chaos_rng = random.Random(chaos.seed) if self.chaos is not None else None
        #: Counted into on the send path; read through :attr:`stats`, which
        #: first replays the kept copies that have arrived.
        self._stats = NetworkStats()
        #: Host name -> offer hook (see :meth:`set_offer`).
        self._offers: dict[str, Callable[[Any], bool]] = {}
        #: Host name -> heap of the copies kept for it, as ``(arrival, seq,
        #: item)`` with the item :meth:`_deliver` takes; no empty heaps.
        self._kept: dict[str, list[tuple[float, int, tuple]]] = {}
        #: The kept copy being delivered while it is replayed, as ``(arrival,
        #: seq, item)``, else None (an ordinary delivery arrives now).
        self.replaying: tuple[float, int, tuple] | None = None
        #: :meth:`_deliver`, bound once: every queued copy's heap entry
        #: takes this one object instead of a fresh bound method.
        self._deliver_fn = self._deliver
        if obs is not None:
            # chaos_dropped is counted at send time: no replay needed.
            obs.metrics.pull(
                self._stats, counters=[("chaos_msgs_dropped_total", "chaos_dropped")]
            )

    @property
    def stats(self) -> NetworkStats:
        """The counters, exact as of now: the kept copies that have arrived
        are delivered first."""
        self._settle()
        return self._stats

    # -- kept copies -----------------------------------------------------------

    def set_offer(self, name: str, offer: Callable[[Any], bool] | None) -> None:
        """Show every copy sent to *name* to ``offer(payload)`` first; None
        removes the hook and releases the copies it kept (:meth:`release`).

        The hook runs after the copy is counted and its latency and chaos
        drawn.  Returning True keeps the copy on the wire in the kernel
        slot reserved for its arrival, with no heap entry (module
        docstring).
        """
        if name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        if offer is None:
            self._offers.pop(name, None)
            self.release(name)
        else:
            self._offers[name] = offer

    def keeps(self, name: str) -> bool:
        """True while copies are kept on the wire for *name*."""
        return name in self._kept

    def catch_up(self, name: str) -> None:
        """Deliver the copies kept for *name* whose slots have passed."""
        kept = self._kept.get(name)
        if kept is not None:
            self._replay(kept)
            if not kept:
                del self._kept[name]

    def release(self, name: str) -> None:
        """Stop keeping copies for *name*: deliver the ones whose slots have
        passed, and queue the rest in their reserved slots."""
        kept = self._kept.pop(name, None)
        if kept is not None:
            self._replay(kept)
            call_at_seq = self.sim.call_at_seq
            for arrival, seq, item in kept:
                call_at_seq(arrival, seq, self._deliver_fn, item)

    def _replay(self, kept: list[tuple[float, int, tuple]]) -> None:
        """Deliver, in slot order, the copies in *kept* whose slots come
        before the running heap entry (:meth:`Simulator.passed`, inlined)."""
        sim = self.sim
        now, cur = sim._now, sim._seq_now
        stats = self._stats
        while kept and (kept[0][0] < now or (kept[0][0] == now and kept[0][1] < cur)):
            self.replaying = entry = _heappop(kept)
            # _deliver inlined: the same drop rules and counts.
            target, src, dst, payload, sent_at = entry[2]
            if not target.alive or (
                (self._partitioned or self._partitioned_oneway or self._isolated)
                and self._blocked(src, dst)
            ):
                stats.dropped_dead += not target.alive
                stats.dropped_partition += target.alive
                continue
            stats.delivered += 1
            target.receive(src, payload, sent_at)
        self.replaying = None

    def _settle(self) -> None:
        """Deliver every kept copy that has arrived (before a change an
        arrival would see, or a read of :attr:`stats`)."""
        for name in tuple(self._kept):
            self.catch_up(name)

    # -- topology management -------------------------------------------------

    def add_host(self, name: str) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(name)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def set_link_latency(self, a: str, b: str, model: LatencyModel) -> None:
        """Override latency for the (symmetric) link a<->b."""
        self._link_latency[(a, b)] = model
        self._link_latency[(b, a)] = model

    def set_host_site(self, host: str, site: str) -> None:
        """Place *host* at a named site (WAN federation modelling, §IV-A)."""
        if host not in self.hosts:
            raise KeyError(f"unknown host {host!r}")
        self._host_site[host] = site

    def set_site_latency(self, a: str, b: str, model: LatencyModel) -> None:
        """One-way latency between sites *a* and *b* (symmetric)."""
        self._site_latency[frozenset((a, b))] = model

    def site_of(self, host: str) -> str | None:
        return self._host_site.get(host)

    def federate(
        self,
        sites: dict[str, list[str]],
        *,
        wan_latency: LatencyModel,
        pair_latency: dict[frozenset[str], LatencyModel] | None = None,
    ) -> None:
        """Build a WAN federation topology in one call (§IV-A).

        *sites* maps site name -> hosts placed there; every distinct site
        pair gets *wan_latency* one-way unless *pair_latency* overrides
        that specific pair.  Intra-site traffic keeps the default model —
        the paper's deployments are fast LANs joined by slow links.
        """
        for site, hosts in sites.items():
            for h in hosts:
                self.set_host_site(h, site)
        names = sorted(sites)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                model = wan_latency
                if pair_latency is not None:
                    model = pair_latency.get(frozenset((a, b)), wan_latency)
                self.set_site_latency(a, b, model)

    def latency_model(self, src: str, dst: str) -> LatencyModel:
        """Resolution order: explicit link override, then the site pair
        (when both hosts are placed at different sites), then the default."""
        if not self._link_latency and not self._site_latency:
            return self.default_latency
        override = self._link_latency.get((src, dst))
        if override is not None:
            return override
        s_src, s_dst = self._host_site.get(src), self._host_site.get(dst)
        if s_src is not None and s_dst is not None and s_src != s_dst:
            site_model = self._site_latency.get(frozenset((s_src, s_dst)))
            if site_model is not None:
                return site_model
        return self.default_latency

    # -- failures ------------------------------------------------------------

    # Every change below first delivers the kept copies that have arrived:
    # they must see the old state.

    def _known(self, *names: str) -> None:
        for name in names:
            if name not in self.hosts:
                raise KeyError(f"unknown host {name!r}")

    def kill(self, name: str) -> None:
        """Mark a host dead: in-flight and future messages to it vanish."""
        host = self.hosts[name]
        self._settle()
        host.alive = False

    def revive(self, name: str) -> None:
        host = self.hosts[name]
        self._settle()
        host.alive = True

    def partition(self, a: str, b: str) -> None:
        self._known(a, b)
        self._settle()
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._settle()
        self._partitioned.discard(frozenset((a, b)))

    def partition_oneway(self, src: str, dst: str) -> None:
        """Black-hole the *src* -> *dst* direction only."""
        self._known(src, dst)
        self._settle()
        self._partitioned_oneway.add((src, dst))

    def heal_oneway(self, src: str, dst: str) -> None:
        self._settle()
        self._partitioned_oneway.discard((src, dst))

    def isolate(self, name: str) -> None:
        """Cut *name* off from everyone without killing it (gray failure).

        Unlike O(n) pairwise partitions, this is one set entry; unlike
        :meth:`kill`, the host's daemons keep running — they just talk to
        a dead wire.
        """
        self._known(name)
        self._settle()
        self._isolated.add(name)

    def unisolate(self, name: str) -> None:
        self._settle()
        self._isolated.discard(name)

    def partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitioned

    def _blocked(self, src: str, dst: str) -> bool:
        """All the ways the src->dst direction can be severed."""
        if self._partitioned and frozenset((src, dst)) in self._partitioned:
            return True
        if self._partitioned_oneway and (src, dst) in self._partitioned_oneway:
            return True
        return src in self._isolated or dst in self._isolated

    # -- the data path ---------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, *, size: int = 0) -> bool:
        """Queue *payload* for delivery; returns False when dropped now.

        Drops are silent to the sender (as on a real network); the return
        value exists only for tests.  A message to a host that dies while
        the message is in flight is also lost — checked again at delivery.
        A host with an offer hook (:meth:`set_offer`) may have the copy
        kept instead of queued.  An unknown *dst* raises ``KeyError``
        before anything is counted.
        """
        target = self.hosts[dst]
        stats = self._stats
        stats.sent += 1
        stats.bytes_sent += size
        cut = self._partitioned or self._partitioned_oneway or self._isolated
        if cut and self._blocked(src, dst):
            stats.dropped_partition += 1
            return False
        if not target.alive:
            stats.dropped_dead += 1
            return False
        if self._link_latency or self._site_latency:
            delay = self.latency_model(src, dst).sample(self.rng)
        else:
            delay = self.default_latency.sample(self.rng)
        if self.chaos is None:
            delays = (delay,)
        else:
            delays = [delay]
            cz, crng = self.chaos, self._chaos_rng
            if cz.drop_prob and crng.random() < cz.drop_prob:
                stats.chaos_dropped += 1
                return False
            if cz.dup_prob and crng.random() < cz.dup_prob:
                # Duplicate re-samples its own latency (chaos RNG), so the
                # two copies can arrive out of order.
                delays.append(self.latency_model(src, dst).sample(crng))
                stats.chaos_duplicated += 1
            if cz.delay_spike_prob and crng.random() < cz.delay_spike_prob:
                delays[0] += cz.delay_spike * crng.random()
                stats.chaos_delayed += 1
        sim = self.sim
        now = sim._now
        offer = self._offers.get(dst) if self._offers else None
        item = (target, src, dst, payload, now)
        for d in delays:
            # Simulator.call_at inlined (d >= 0), with the seq taken first:
            # a kept copy keeps the slot its delivery would have had.
            seq = sim._seq
            sim._seq = seq + 1
            if offer is None or not offer(payload):
                _heappush(sim._heap, (now + d, seq, self._deliver_fn, item))
                continue
            kept = self._kept.get(dst)
            if kept is None:
                self._kept[dst] = [(now + d, seq, item)]
                continue
            if kept[0][0] < now or (kept[0][0] == now and kept[0][1] < sim._seq_now):
                self._replay(kept)  # only copies still on the wire stay kept
            _heappush(kept, (now + d, seq, item))
        return True

    def _deliver(self, item: tuple[Host, str, str, Any, float]) -> None:
        """Hand one arrived copy to its target, unless the target died or
        the link was cut while the message was in flight."""
        target, src, dst, payload, sent_at = item
        if not target.alive or (
            (self._partitioned or self._partitioned_oneway or self._isolated)
            and self._blocked(src, dst)
        ):
            self._stats.dropped_dead += not target.alive
            self._stats.dropped_partition += target.alive
            return
        self._stats.delivered += 1
        target.receive(src, payload, sent_at)
