"""The simulated network: hosts, links, partitions, and message delivery.

A :class:`Host` is a named endpoint with an inbox (:class:`~repro.sim.sync.Store`);
daemons loop on the inbox.  The :class:`Network` delivers messages between
hosts after a sampled link latency, drops traffic to dead or partitioned
hosts, and counts everything — message counts are primary data for the
protocol-efficiency experiment (E7) and the registration experiment (E11).

Message payloads are opaque to the network; the cluster layer defines its
own message dataclasses (:mod:`repro.cluster.protocol`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed, LatencyModel
from repro.sim.sync import Store

__all__ = ["Host", "Envelope", "NetworkStats", "ChaosConfig", "Network"]


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
class Envelope:
    """A message in flight / delivered."""

    src: str
    dst: str
    payload: Any
    sent_at: float
    delivered_at: float = -1.0

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at


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
    """A network endpoint.  ``alive`` gates delivery; daemons also watch it."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.inbox = Store(sim)
        self.alive = True

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
        self.stats = NetworkStats()
        if obs is not None:
            obs.metrics.pull(
                self.stats, counters=[("chaos_msgs_dropped_total", "chaos_dropped")]
            )

    # -- topology management -------------------------------------------------

    def add_host(self, name: str) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(self.sim, name)
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

    def kill(self, name: str) -> None:
        """Mark a host dead: in-flight and future messages to it vanish."""
        self.hosts[name].alive = False

    def revive(self, name: str) -> None:
        self.hosts[name].alive = True

    def partition(self, a: str, b: str) -> None:
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def partition_oneway(self, src: str, dst: str) -> None:
        """Black-hole the *src* -> *dst* direction only."""
        self._partitioned_oneway.add((src, dst))

    def heal_oneway(self, src: str, dst: str) -> None:
        self._partitioned_oneway.discard((src, dst))

    def isolate(self, name: str) -> None:
        """Cut *name* off from everyone without killing it (gray failure).

        Unlike O(n) pairwise partitions, this is one set entry; unlike
        :meth:`kill`, the host's daemons keep running — they just talk to
        a dead wire.
        """
        if name not in self.hosts:
            raise KeyError(f"unknown host {name!r}")
        self._isolated.add(name)

    def unisolate(self, name: str) -> None:
        self._isolated.discard(name)

    def partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitioned

    def _blocked(self, src: str, dst: str) -> bool:
        """All the ways the src->dst direction can be severed."""
        if frozenset((src, dst)) in self._partitioned:
            return True
        if (src, dst) in self._partitioned_oneway:
            return True
        return src in self._isolated or dst in self._isolated

    # -- the data path ---------------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, *, size: int = 0) -> bool:
        """Queue *payload* for delivery; returns False when dropped now.

        Drops are silent to the sender (as on a real network); the return
        value exists only for tests.  A message to a host that dies while
        the message is in flight is also lost — checked again at delivery.
        """
        self.stats.sent += 1
        self.stats.bytes_sent += size
        if self._blocked(src, dst):
            self.stats.dropped_partition += 1
            return False
        target = self.hosts[dst]
        if not target.alive:
            self.stats.dropped_dead += 1
            return False
        delay = self.latency_model(src, dst).sample(self.rng)
        delays = [delay]
        if self.chaos is not None:
            cz, crng = self.chaos, self._chaos_rng
            if cz.drop_prob and crng.random() < cz.drop_prob:
                self.stats.chaos_dropped += 1
                return False
            if cz.dup_prob and crng.random() < cz.dup_prob:
                # Duplicate re-samples its own latency (chaos RNG), so the
                # two copies can arrive out of order.
                delays.append(self.latency_model(src, dst).sample(crng))
                self.stats.chaos_duplicated += 1
            if cz.delay_spike_prob and crng.random() < cz.delay_spike_prob:
                delays[0] += cz.delay_spike * crng.random()
                self.stats.chaos_delayed += 1

        sent_at = self.sim.now

        def deliver(d: float):
            yield self.sim.sleep(d)
            if not target.alive or self._blocked(src, dst):
                self.stats.dropped_dead += not target.alive
                self.stats.dropped_partition += target.alive
                return
            env = Envelope(src=src, dst=dst, payload=payload, sent_at=sent_at)
            env.delivered_at = self.sim.now
            self.stats.delivered += 1
            target.inbox.put(env)

        for d in delays:
            self.sim.process(deliver(d), name=f"deliver:{src}->{dst}")
        return True
