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
hook and a replay hook (:meth:`Network.set_offer`); :meth:`Network.send`
shows the offer hook every copy after counting it and drawing its latency
and chaos.  A copy the hook accepts stays with the network, in a per-host
list of ``(arrival, seq, src, payload, sent_at)`` entries, where
``(arrival, seq)`` is the kernel slot reserved for it, and costs no heap
entry: a server cmsd accepts the ``QueryFile``s it will not answer and the
``HeartbeatAck``s from parents that know it.  The network owns those
copies until they are delivered.  Kept copies pile up and are replayed in
runs: the network sorts the list, cuts off the entries whose slots have
passed, applies :meth:`Network._deliver`'s drop rules and delivery
counters to them, and hands the surviving run to the replay hook in slot
order, so the receiver can serve each copy as of its arrival.  That
happens when the host asks (:meth:`Network.catch_up`), once its list
reaches :data:`KEPT_RUN` entries, before a kill or revive of the host
itself, before a partition, heal or isolation (for every host), and before
:attr:`Network.stats` is read.  When the host wants its copies delivered
as ordinary entries again (:meth:`Network.release`, or removing the hook),
the network replays the passed ones and queues the rest in their reserved
slots.  A replay hook must not send and must not draw from the network's
RNG: a run can be replayed in the middle of a :meth:`Network.send`.

A flood is one call: :meth:`Network.send` takes a tuple of destinations
and does, per copy, only what the output depends on — the liveness check,
the latency draw in the order separate sends would make it, the seq, the
offer, and the keep or heap push.

Message payloads are opaque to the network; the cluster layer defines its
own message classes (:mod:`repro.cluster.protocol`).
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed, LatencyModel, Uniform

__all__ = ["Host", "NetworkStats", "ChaosConfig", "Network", "KEPT_RUN"]

_heappush = heapq.heappush

#: A host's kept copies are replayed as soon as its list holds this many,
#: so the copies that have arrived but still wait for a catch-up, memory
#: held per leaf, stay few.  On cold-create this bound adds 0.33 MiB to
#: the traced peak and 32 adds 0.76 MiB, with no measurable gain in speed
#: (docs/performance.md).
KEPT_RUN = 16


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
        #: Host name -> offer hook and replay hook (see :meth:`set_offer`).
        self._offers: dict[str, Callable[[Any], bool]] = {}
        self._replays: dict[str, Callable[[list], None]] = {}
        #: Host name -> the copies kept for it, as ``(arrival, seq, src,
        #: payload, sent_at)`` entries in send order; no empty lists.
        self._kept: dict[str, list[tuple[float, int, str, Any, float]]] = {}
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

    def set_offer(
        self,
        name: str,
        offer: Callable[[Any], bool] | None,
        replay: Callable[[list], None] | None = None,
    ) -> None:
        """Show every copy sent to *name* to ``offer(payload)`` first, and
        hand the kept copies back to ``replay(entries)``; None removes both
        hooks and releases the copies kept (:meth:`release`).

        The offer hook runs after the copy is counted and its latency and
        chaos drawn.  Returning True keeps the copy on the wire in the
        kernel slot reserved for its arrival, with no heap entry.  Kept
        copies are replayed in runs, not one by one (module docstring):
        ``replay`` gets a list of the ``(arrival, seq, src, payload,
        sent_at)`` entries that have arrived and passed the drop rules, in
        slot order, and serves them as of their arrivals.  It must neither
        send nor draw from the network's RNG.
        """
        if name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        if offer is None:
            self._offers.pop(name, None)
            self.release(name)
            self._replays.pop(name, None)
        elif replay is None:
            raise ValueError("an offer hook needs a replay hook")
        else:
            self._offers[name] = offer
            self._replays[name] = replay

    def keeps(self, name: str) -> bool:
        """True while copies are kept on the wire for *name*."""
        return name in self._kept

    def catch_up(self, name: str) -> None:
        """Deliver the copies kept for *name* whose slots have passed."""
        kept = self._kept.get(name)
        if kept is not None:
            self._replay(name, kept)

    def release(self, name: str) -> None:
        """Stop keeping copies for *name*: deliver the ones whose slots have
        passed, and queue the rest in their reserved slots."""
        kept = self._kept.get(name)
        if kept is not None:
            self._replay(name, kept)
            rest = self._kept.pop(name, ())
            call_at_seq = self.sim.call_at_seq
            target = self.hosts[name]
            for arrival, seq, src, payload, sent_at in rest:
                call_at_seq(arrival, seq, self._deliver_fn, (target, src, name, payload, sent_at))

    def _replay(self, name: str, kept: list) -> None:
        """Hand *name*'s replay hook, as one run in slot order, the copies
        in *kept* (its list in :attr:`_kept`) whose slots come before the
        running heap entry (:meth:`Simulator.passed`), less the ones
        :meth:`_deliver`'s drop rules take; the rest stay in the list,
        sorted."""
        sim = self.sim
        now, cur = sim._now, sim._seq_now
        kept.sort()  # slots are unique, so only (arrival, seq) is compared
        last = kept[-1]
        if last[0] < now or (last[0] == now and last[1] < cur):
            run = kept  # all of them: the usual case at a catch-up
            del self._kept[name]
        else:
            n = bisect_left(kept, (now, cur))
            if not n:
                return
            run = kept[:n]
            del kept[:n]
        n = len(run)
        stats = self._stats
        if not self.hosts[name].alive:
            stats.dropped_dead += n
            return
        if self._partitioned or self._partitioned_oneway or self._isolated:
            blocked = self._blocked
            run = [entry for entry in run if not blocked(entry[2], name)]
            stats.dropped_partition += n - len(run)
            if not run:
                return
        stats.delivered += len(run)
        self._replays[name](run)

    def _settle(self) -> None:
        """Deliver every kept copy that has arrived (before a change an
        arrival would see, or a read of :attr:`stats`)."""
        for name, kept in tuple(self._kept.items()):
            self._replay(name, kept)

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

    # Each change first delivers the arrived kept copies whose fate it
    # changes: a kill or revive the host's own (drops read the target), a cut all.

    def _known(self, *names: str) -> None:
        for name in names:
            if name not in self.hosts:
                raise KeyError(f"unknown host {name!r}")

    def kill(self, name: str) -> None:
        """Mark a host dead: in-flight and future messages to it vanish."""
        host = self.hosts[name]
        self.catch_up(name)
        host.alive = False

    def revive(self, name: str) -> None:
        host = self.hosts[name]
        self.catch_up(name)
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

    def send(self, src: str, dst: str | tuple[str, ...], payload: Any, *, size: int = 0) -> bool:
        """Queue *payload* for delivery; returns False when dropped now.

        *dst* is a host name, or a tuple of them: a flood, one copy each,
        exactly as if the copies were sent one by one in that order.
        Drops are silent to the sender (as on a real network); the return
        value exists only for tests, and for a tuple is True only when no
        copy was dropped.  A message to a host that dies while the message
        is in flight is also lost — checked again at delivery.  A host
        with an offer hook (:meth:`set_offer`) may have the copy kept
        instead of queued.  An unknown destination raises ``KeyError``
        before anything is counted.
        """
        if dst.__class__ is tuple:
            return self._send_flood(src, dst, payload, size)
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
                self._kept[dst] = [(now + d, seq, src, payload, now)]
            else:
                kept.append((now + d, seq, src, payload, now))
                if len(kept) >= KEPT_RUN:
                    self._replay(dst, kept)
        return True

    def _send_flood(self, src: str, dst: tuple[str, ...], payload: Any, size: int) -> bool:
        """:meth:`send` to a tuple of destinations."""
        targets = tuple(map(self.hosts.__getitem__, dst))
        if (
            self._partitioned
            or self._partitioned_oneway
            or self._isolated
            or self.chaos is not None
            or self._link_latency
            or self._site_latency
        ):
            sent = True
            for name in dst:
                sent &= _send_one(self, src, name, payload, size=size)
            return sent
        # The fast path: per copy only the liveness check, the latency draw
        # (Uniform.sample inlined: the same float), the seq, the offer, and
        # the keep or the heap push of the one-copy path.
        stats = self._stats
        stats.sent += len(dst)
        stats.bytes_sent += len(dst) * size
        rng = self.rng
        model = self.default_latency
        if model.__class__ is Uniform:
            lo = model.lo
            span = model.hi - lo
            random = rng.random
        else:
            random, sample = None, model.sample
        sim = self.sim
        now = sim._now
        heap = sim._heap
        deliver = self._deliver_fn
        offers = self._offers
        kept_for = self._kept
        dead = 0
        for target, name in zip(targets, dst):
            if not target.alive:
                dead += 1
                continue
            if random is not None:
                arrival = now + (lo + span * random())
            else:
                arrival = now + sample(rng)
            seq = sim._seq
            sim._seq = seq + 1
            offer = offers.get(name)
            if offer is None or not offer(payload):
                _heappush(heap, (arrival, seq, deliver, (target, src, name, payload, now)))
                continue
            kept = kept_for.get(name)
            if kept is None:
                kept_for[name] = [(arrival, seq, src, payload, now)]
            else:
                kept.append((arrival, seq, src, payload, now))
                if len(kept) >= KEPT_RUN:
                    self._replay(name, kept)
        if dead:
            stats.dropped_dead += dead
        return not dead

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


#: The one-copy path of :meth:`Network.send`, bound at import: a flood's
#: per-copy fallback calls it, so a wrapper put on ``Network.send`` later
#: (perfbench's tracer) still sees one call per flood.
_send_one = Network.send
