"""64-ary tree construction.

"Nodes ... are clustered in sets of 64 and the sets are arranged in a
64-ary tree" (§II-B1).  This module turns a server count into an explicit
tree of node specifications: one (or more, when replicated) manager at the
root, however many supervisor layers the count requires, and the data
servers at the leaves.

"Every node in the cluster can be replicated to provide an arbitrary level
of reliability" — we support the case that matters for availability
experiments: replicated managers, where every top-level subordinate logs
into all manager replicas and clients fail over between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.ids import NodeId, Role

__all__ = ["NodeSpec", "Topology", "build_topology", "FANOUT"]

#: Paper-mandated cluster fanout.  Configurable for ablations only; the
#: 64-bit vectors in the cache genuinely cap it at 64.
FANOUT = 64


@dataclass
class NodeSpec:
    """One node in the tree (pre-instantiation)."""

    node_id: NodeId
    parents: tuple[str, ...]  # parent node names ("" level for managers)
    children: tuple[str, ...] = ()
    exports: tuple[str, ...] = ("/store",)
    #: Failover parents, in preference order: the parent's sibling
    #: supervisors first, then the grandparent level (managers at the
    #: top).  A subordinate whose parent goes silent past the re-login
    #: horizon re-homes to the first reachable standby instead of
    #: heartbeating into the void (§III-A4 treats the adoption as an
    #: ordinary "server added" membership event on the new parent).  A
    #: standby is one node name, or a tuple of peer nodes adopted
    #: together: the parent's own parent set, i.e. every peer manager,
    #: since each answers only for the subordinates logged into it.
    standbys: tuple[str | tuple[str, ...], ...] = ()

    @property
    def name(self) -> str:
        return self.node_id.name

    @property
    def role(self) -> Role:
        return self.node_id.role


@dataclass
class Topology:
    """A validated tree of node specs."""

    nodes: dict[str, NodeSpec] = field(default_factory=dict)
    managers: tuple[str, ...] = ()
    fanout: int = FANOUT

    @property
    def servers(self) -> list[str]:
        return [n for n, s in self.nodes.items() if s.role is Role.SERVER]

    @property
    def supervisors(self) -> list[str]:
        return [n for n, s in self.nodes.items() if s.role is Role.SUPERVISOR]

    def depth(self) -> int:
        """Number of cmsd levels above the servers (1 = flat cluster)."""
        d = 0
        node = self.nodes[self.servers[0]]
        while node.parents:
            d += 1
            node = self.nodes[node.parents[0]]
        return d

    def validate(self) -> None:
        for name, spec in self.nodes.items():
            assert len(spec.children) <= self.fanout, (
                f"{name} has {len(spec.children)} children, fanout is {self.fanout}"
            )
            for child in spec.children:
                assert name in self.nodes[child].parents, f"{child} not linked to parent {name}"
            if spec.role is Role.SERVER:
                assert not spec.children, f"server {name} cannot have children"
            if spec.role is Role.MANAGER:
                assert not spec.parents, f"manager {name} cannot have parents"


def build_topology(
    n_servers: int,
    *,
    fanout: int = FANOUT,
    exports: tuple[str, ...] = ("/store",),
    managers: int = 1,
) -> Topology:
    """Build the shallowest tree holding *n_servers* leaves.

    Levels are filled bottom-up: servers are grouped into sets of
    ``fanout``, each set under a supervisor, supervisor sets under further
    supervisors, until one set remains — that set's parent is the manager
    level: ``managers`` shared-nothing peer managers that share all
    subordinates and each receive every top-level login and unsolicited
    HaveFile advisory, so any one of them can serve clients while the
    others are down.

    Every interior node also gets a ``standbys`` list (see
    :class:`NodeSpec`) so its subtree can re-home when it dies.
    """
    if n_servers < 1:
        raise ValueError("need at least one server")
    if not 2 <= fanout <= FANOUT:
        raise ValueError(f"fanout must be in [2, {FANOUT}] (64-bit vectors)")
    if managers < 1:
        raise ValueError("need at least one manager")

    topo = Topology(fanout=fanout)
    manager_names = tuple(f"mgr{i}" for i in range(managers))
    topo.managers = manager_names

    # Current level being grouped, bottom-up.
    level_nodes = [f"srv{i:05d}" for i in range(n_servers)]
    for name in level_nodes:
        topo.nodes[name] = NodeSpec(
            node_id=NodeId(name, Role.SERVER), parents=(), exports=exports
        )

    depth = 0
    while len(level_nodes) > fanout:
        depth += 1
        groups = [level_nodes[i : i + fanout] for i in range(0, len(level_nodes), fanout)]
        next_level = []
        for gi, group in enumerate(groups):
            sup_name = f"sup{depth}-{gi:04d}"
            topo.nodes[sup_name] = NodeSpec(
                node_id=NodeId(sup_name, Role.SUPERVISOR),
                parents=(),
                children=tuple(group),
                exports=exports,
            )
            parents = (sup_name,)  # one tuple shared by the whole group
            for child in group:
                topo.nodes[child].parents = parents
            next_level.append(sup_name)
        level_nodes = next_level

    for mname in manager_names:
        topo.nodes[mname] = NodeSpec(
            node_id=NodeId(mname, Role.MANAGER),
            parents=(),
            children=tuple(level_nodes),
            exports=exports,
        )
    for child in level_nodes:
        topo.nodes[child].parents = manager_names

    _assign_standbys(topo)
    topo.validate()
    return topo


def _assign_standbys(topo: Topology) -> None:
    """Compute per-node standby lists: parent's siblings, then grandparents.

    The grandparents are one standby: a parent logs into all of its own
    parents (every peer manager, at the top), so an orphan re-homed to
    that level must too, or the peers it skipped answer for its files
    with a false "not found".  A top-level subordinate already logs into
    every manager, so its list is empty — there is nowhere else to go,
    and the capped-backoff re-login loop covers a manager restart instead.

    Siblings share their parents, so the list is computed once per
    distinct parent set, and all the siblings share the same tuple.
    """
    shared: dict[tuple[str, ...], tuple] = {}
    for spec in topo.nodes.values():
        if not spec.parents:
            continue
        standbys = shared.get(spec.parents)
        if standbys is None:
            # A standby list never names the node's own parents.
            standbys = shared[spec.parents] = _standbys_under(topo, spec.parents)
        spec.standbys = standbys


def _standbys_under(
    topo: Topology, parents: tuple[str, ...]
) -> tuple[str | tuple[str, ...], ...]:
    """The standby list of a node whose parents are *parents*."""
    pool: list[str | tuple[str, ...]] = []
    seen = set(parents)
    grandparents: list[str] = []
    for p in parents:
        for gp in topo.nodes[p].parents:
            for sib in topo.nodes[gp].children:
                if sib not in seen:
                    seen.add(sib)
                    pool.append(sib)
            if gp not in parents and gp not in grandparents:
                grandparents.append(gp)
    if len(grandparents) == 1:
        pool.append(grandparents[0])
    elif grandparents:
        pool.append(tuple(grandparents))
    return tuple(pool)


def expected_depth(n_servers: int, fanout: int = FANOUT) -> int:
    """Closed-form depth for cross-checking: ceil(log_fanout(n))."""
    return max(1, math.ceil(math.log(n_servers, fanout))) if n_servers > 1 else 1
