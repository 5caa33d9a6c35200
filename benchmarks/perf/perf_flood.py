"""Silent floods: a supervisor floods 64 leaves that never answer.

A bare parent host sends a ``QueryFile`` for a fresh missing path to one
supervisor cmsd every 200 us of simulated time; the supervisor misses its
cache and floods all 64 of its server cmsds (request-rarely-respond,
§III-B), none of which holds the path.  Every copy is therefore a silent
one: the network keeps it on the wire and the leaf serves it as one entry
of a replayed run.  The simulation then runs past the last arrival and
reads ``network.stats``, which replays what is still kept, so every copy
is paid for.  ``flood_copies_per_sec`` counts copies per wall-clock second.

Links and service times are the jittered ones perfbench uses, so each
copy draws its latency, and each leaf its service time, from an RNG.
"""

from __future__ import annotations

import random

from repro.cluster import protocol as pr
from repro.cluster.cmsd import Cmsd
from repro.cluster.config import ScallaConfig
from repro.cluster.fs import ServerFS
from repro.cluster.ids import NodeId, Role
from repro.cluster.xrootd import XrootdServer
from repro.core.crc32 import hash_name
from repro.sim.kernel import Simulator
from repro.sim.latency import Uniform
from repro.sim.network import Network

from . import best_rate

LEAVES = 64
#: Simulated time between floods.
PERIOD = 200e-6


def run_floods(n_floods: int = 4_000) -> int:
    """Send *n_floods* floods of :data:`LEAVES` silent copies each; returns
    the number of copies delivered."""
    sim = Simulator()
    net = Network(sim, default_latency=Uniform(8e-6, 12e-6), rng=random.Random(1))
    config = ScallaConfig(
        server_service=Uniform(64e-6, 96e-6),
        manager_service=Uniform(4e-6, 6e-6),
        sanitize=False,
    )
    sup = Cmsd(sim, net, NodeId("sup", Role.SUPERVISOR), config=config)
    sup.start()
    for i in range(LEAVES):
        node = NodeId(f"srv{i:02d}", Role.SERVER)
        xrootd = XrootdServer(sim, net, node, ServerFS(), config=config)
        Cmsd(
            sim, net, node, parents=("sup",), xrootd=xrootd, config=config, rng=random.Random(i)
        ).start()
    parent = net.add_host("mgr.cmsd")
    sim.run(until=0.01)  # every leaf has logged in
    before = net.stats.delivered
    for i in range(n_floods):
        path = f"/store/miss/run{i:06d}.root"
        q = pr.QueryFile(path=path, hash_val=hash_name(path), mode="r", serial=i)
        net.send(parent.name, sup.host.name, q, size=q.wire_size())
        sim.run(until=sim.now + PERIOD)
    sim.run(until=sim.now + 1e-3)
    copies = net.stats.delivered - before - n_floods  # less the queries to sup
    assert copies == n_floods * LEAVES, copies
    return copies


def run_suite(*, scale: int = 1, repeats: int = 3) -> dict[str, float]:
    n_floods = 4_000 // scale
    return {
        "flood_copies_per_sec": round(best_rate(lambda: run_floods(n_floods), repeats=repeats), 1),
    }
