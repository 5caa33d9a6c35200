#!/usr/bin/env python
"""WAN federation: geographically distributed sites under one namespace.

§IV-A: "The ALICE LHC experiment uses Scalla to provide world-wide file
access by clustering storage over 60 sites in 20 countries."  This example
builds a scaled model: three sites (CERN, IN2P3, SLAC) whose data servers
all join one CERN-hosted manager, with realistic one-way WAN latencies per
site pair.  It shows:

* the uniform namespace — every client opens the same path regardless of
  where the bytes live;
* what WAN distance costs — the same file read from the local site vs
  across the Atlantic;
* replica placement paying off — every client here sits at a site, so
  the locality-aware selection extension keeps its reads of a replicated
  hot file at its own site, and the measured gap against a remote replica
  quantifies why federations replicate hot data;
* staging from a remote tape archive (MSS), the V_p path at WAN scale.

A reproduction finding worth noting: with the paper's 133 ms fast-response
window, transatlantic query responses (~160 ms round trip) *miss the
window*.  As the paper describes it, every such cold lookup would then
degrade to the full 5 s wait.  Late-response reconciliation (on by
default) releases the parked client the moment the answer lands, so the
lookup costs one WAN round trip.  Add ``late_release=False`` to the config
to watch cold cross-Atlantic lookups jump from ~300 ms to ~5.3 s.

Run:  python examples/wan_federation.py
"""

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.ids import cmsd_host, xrootd_host
from repro.sim.latency import Fixed, Uniform

# Three sites, four servers each.  One-way latencies between site pairs.
SITES = ["cern", "in2p3", "slac"]
SERVERS_PER_SITE = 4
SITE_LATENCY = {
    ("cern", "in2p3"): Uniform(4e-3, 5e-3),  # intra-Europe
    ("cern", "slac"): Uniform(75e-3, 80e-3),  # transatlantic + transcontinental
    ("in2p3", "slac"): Uniform(78e-3, 84e-3),
}


def site_of_index(i: int) -> str:
    return SITES[i // SERVERS_PER_SITE]


def main() -> None:
    cluster = ScallaCluster(
        len(SITES) * SERVERS_PER_SITE,
        config=ScallaConfig(
            seed=23,
            stage_latency=Fixed(30.0),
            # Redirects prefer replicas at the client's site.  The manager
            # learns each child's site from heartbeats, so run them often
            # enough to have the map before the first reads.
            heartbeat_interval=0.2,
        ),
    )
    net = cluster.network

    # Place every daemon host at its site; the manager and cnsd sit at CERN.
    for idx, server in enumerate(cluster.servers):
        site = site_of_index(idx)
        net.set_host_site(cmsd_host(server), site)
        net.set_host_site(xrootd_host(server), site)
    net.set_host_site(cmsd_host(cluster.managers[0]), "cern")
    net.set_host_site("cnsd", "cern")
    for (a, b), model in SITE_LATENCY.items():
        net.set_site_latency(a, b, model)

    # Dataset: each site holds its own runs; one hot file is everywhere.
    site_servers = {
        s: [srv for i, srv in enumerate(cluster.servers) if site_of_index(i) == s]
        for s in SITES
    }
    for s in SITES:
        for i in range(20):
            cluster.place(f"/store/{s}/run{i:02d}.root", site_servers[s][i % SERVERS_PER_SITE], size=4096)
    for s in SITES:
        cluster.place("/store/hot/calibration.root", site_servers[s][0], size=4096)
    # An archived file only on SLAC's tape.
    cluster.archive("/store/slac/tape-archive.root", site_servers["slac"][1], size=4096)
    cluster.settle(1.0)

    def client_at(site: str, name: str):
        c = cluster.client(name)
        net.set_host_site(name, site)
        return c

    print(f"federation: {len(SITES)} sites x {SERVERS_PER_SITE} servers, "
          f"manager at cern\n")

    # -- same namespace, different distances --------------------------------
    for site in SITES:
        client = client_at(site, f"user-{site}")
        res_local = cluster.run_process(client.open(f"/store/{site}/run00.root"), limit=120)
        res_remote = cluster.run_process(client.open("/store/slac/run01.root"), limit=120)
        print(f"client at {site:6s}: local open {res_local.latency * 1e3:7.2f} ms   "
              f"slac-hosted open {res_remote.latency * 1e3:7.2f} ms")

    # -- replication + locality-aware selection pays --------------------------
    print()
    # Warm the hot file's location once and let every site's (WAN-delayed)
    # response reach the manager, so selection sees all three replicas.
    cluster.run_process(client_at("cern", "hot-warm").open("/store/hot/calibration.root"), limit=120)
    cluster.settle(0.5)
    for site in SITES:
        client = client_at(site, f"hot-{site}")
        res = cluster.run_process(client.open("/store/hot/calibration.root"), limit=120)
        local = site_of_index(cluster.servers.index(res.node)) == site
        print(f"client at {site:6s}: replicated hot file -> {res.node} "
              f"({res.latency * 1e3:7.2f} ms, {'local replica' if local else 'remote'})")

    # -- WAN staging ---------------------------------------------------------
    print()
    client = client_at("cern", "analyst")
    res = cluster.run_process(client.open("/store/slac/tape-archive.root"), limit=600)
    print(f"tape-archived file staged at SLAC and opened from CERN in "
          f"{res.latency:.1f} s (30 s stage + WAN hops) -> {res.node}")

    stats = net.stats
    print(f"\nnetwork: {stats.sent} messages, {stats.bytes_sent} bytes, "
          f"{stats.dropped} dropped")


if __name__ == "__main__":
    main()
