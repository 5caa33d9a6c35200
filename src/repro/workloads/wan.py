"""The E6-wan scenario: four data servers 78-82 ms (one way) from their
manager, one file on them.  Bench E6's WAN table, the perf suite's
``wan_cold_locate_us`` and the WAN window tests all build it here."""

from __future__ import annotations

from repro.cluster.ids import cmsd_host, xrootd_host
from repro.cluster.scalla import ScallaCluster, ScallaConfig
from repro.sim.latency import Uniform

#: The one file the federation holds.
WAN_PATH = "/store/wan.root"


def wan_federation(settle: float = 0.5, **config_kwargs) -> ScallaCluster:
    """The manager at site ``hq``, every server's cmsd and xrootd at
    ``remote``; seed 74, *config_kwargs* on the config, settled for
    *settle* simulated seconds."""
    cluster = ScallaCluster(4, config=ScallaConfig(seed=74, **config_kwargs))
    remote = [h for s in cluster.servers for h in (cmsd_host(s), xrootd_host(s))]
    cluster.network.federate(
        {"remote": remote, "hq": [cmsd_host(cluster.managers[0])]},
        wan_latency=Uniform(78e-3, 82e-3),
    )
    cluster.populate([WAN_PATH], size=64)
    cluster.settle(settle)
    return cluster


def cold_locate(cluster: ScallaCluster, path: str = WAN_PATH):
    """Locate *path* from a new client at ``hq``; returns the simulated
    seconds it took, and the client."""
    client = cluster.client()
    cluster.network.set_host_site(client.host.name, "hq")
    t0 = cluster.sim.now
    cluster.run_process(client.locate(path), limit=120)
    return cluster.sim.now - t0, client
