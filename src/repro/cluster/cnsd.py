"""The Cluster Name Space daemon (cnsd).

Scalla deliberately omits cluster-wide ``ls`` from the low-latency path;
footnote 3 of the paper notes full POSIX semantics are provided by a
separate Cluster Name Space daemon (plus FUSE).  This module is that
daemon: servers push ``NamespaceUpdate`` notifications on create/remove,
and the cnsd maintains an eventually-consistent global view that can be
listed by prefix — off the critical path, exactly as designed.

Each path maps to a tuple of the node names holding it.  Most files have
one or two holders, and a short tuple is a fraction of the size of a
``set``; a cluster populated with millions of replicas keeps one entry per
file here.
"""

from __future__ import annotations

from repro.cluster import protocol as pr
from repro.sim.kernel import Simulator
from repro.sim.network import Network

__all__ = ["CnsDaemon", "CNSD_HOST"]

CNSD_HOST = "cnsd"


class CnsDaemon:
    """Global namespace aggregator."""

    def __init__(self, sim: Simulator, network: Network, host_name: str = CNSD_HOST) -> None:
        self.sim = sim
        self.network = network
        self.host = network.add_host(host_name)
        #: path -> node names currently holding a copy, in arrival order.
        self._holders: dict[str, tuple[str, ...]] = {}
        self.updates = 0

    def start(self) -> None:
        self.host.listen(self._on_message)

    def stop(self) -> None:
        self.host.listen(None)

    def _on_message(self, src: str, msg: object, sent_at: float) -> None:
        if isinstance(msg, pr.NamespaceUpdate):
            self.apply(msg.node, msg.path, msg.op)
        elif isinstance(msg, pr.List):
            names = tuple(self.list(msg.prefix))
            reply = pr.ListAck(msg.req_id, names)
            self.network.send(self.host.name, msg.reply_to, reply, size=pr.estimate_size(reply))

    # -- namespace maintenance ----------------------------------------------------

    def apply(self, node: str, path: str, op: str) -> None:
        """Apply one update (also used out-of-band when populating clusters)."""
        self.updates += 1
        holders = self._holders.get(path, ())
        if op == "create":
            if node not in holders:
                self._holders[path] = holders + (node,)
        elif op == "remove":
            if node in holders:
                rest = tuple(h for h in holders if h != node)
                if rest:
                    self._holders[path] = rest
                else:
                    del self._holders[path]
        else:
            raise ValueError(f"unknown namespace op {op!r}")

    # -- queries -------------------------------------------------------------

    def list(self, prefix: str = "/") -> list[str]:
        """Sorted global listing under *prefix* — the ls Scalla itself
        refuses to do on the fast path."""
        return sorted(p for p in self._holders if p.startswith(prefix))

    def holders(self, path: str) -> set[str]:
        return set(self._holders.get(path, ()))

    def file_count(self) -> int:
        return len(self._holders)
