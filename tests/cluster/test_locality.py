"""Tests for the locality-aware selection extension (WAN federations)."""

import math

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.ids import cmsd_host, xrootd_host
from repro.sim.latency import Fixed


def wan_cluster(locality: bool, heartbeat_interval: float = 0.2):
    cluster = ScallaCluster(
        4,
        config=ScallaConfig(
            seed=341,
            heartbeat_interval=heartbeat_interval,
            fast_period=0.5,
            locality_aware=locality,
        ),
    )
    net = cluster.network
    # Two sites, two servers each; the manager sits at site east.
    for i, server in enumerate(cluster.servers):
        site = "east" if i < 2 else "west"
        net.set_host_site(cmsd_host(server), site)
        net.set_host_site(xrootd_host(server), site)
    net.set_host_site(cmsd_host(cluster.managers[0]), "east")
    net.set_site_latency("east", "west", Fixed(40e-3))
    # A file replicated once per site.
    cluster.place("/store/hot.root", cluster.servers[0], size=64)  # east
    cluster.place("/store/hot.root", cluster.servers[2], size=64)  # west
    # Heartbeats must run once so the manager learns each child's site.
    cluster.settle(0.5)
    return cluster


def client_at(cluster, site, name):
    c = cluster.client(name)
    cluster.network.set_host_site(name, site)
    return c


def warm(cluster):
    """Warm the location cache and let the cross-WAN responses land
    (the west replica's HaveFile takes 40 ms to reach the east manager)."""
    cluster.run_process(client_at(cluster, "east", f"warm{cluster._clients}").open("/store/hot.root"), limit=120)
    cluster.settle(0.1)


def opens_from(cluster, site, n=4):
    nodes = []
    for i in range(n):
        client = client_at(cluster, site, f"{site}-c{i}")
        res = cluster.run_process(client.open("/store/hot.root"), limit=120)
        nodes.append(res.node)
    return nodes


class TestLocalityAware:
    def test_west_clients_stay_west(self):
        cluster = wan_cluster(locality=True)
        # Warm the location cache (cold opens are answered by first
        # responder, which is a latency race, not a policy decision).
        warm(cluster)
        west_nodes = set(opens_from(cluster, "west"))
        assert west_nodes == {cluster.servers[2]}

    def test_east_clients_stay_east(self):
        cluster = wan_cluster(locality=True)
        warm(cluster)
        east_nodes = set(opens_from(cluster, "east"))
        assert east_nodes == {cluster.servers[0]}

    def test_latency_benefit_is_real(self):
        aware = wan_cluster(locality=True)
        naive = wan_cluster(locality=False)
        for c in (aware, naive):
            warm(c)
        aware_lat = []
        for i in range(4):
            client = client_at(aware, "west", f"wa{i}")
            aware_lat.append(aware.run_process(client.open("/store/hot.root"), limit=120).latency)
        naive_lat = []
        for i in range(4):
            client = client_at(naive, "west", f"wn{i}")
            naive_lat.append(naive.run_process(client.open("/store/hot.root"), limit=120).latency)
        # Locality: locate crosses the WAN (manager is east) but the data
        # open stays west.  Naive round-robin alternates sites, so its mean
        # open latency carries extra WAN round trips half the time.
        assert sum(aware_lat) < sum(naive_lat)

    def test_falls_back_when_no_local_replica(self):
        cluster = wan_cluster(locality=True)
        cluster.place("/store/east-only.root", cluster.servers[1], size=64)
        cluster.run_process(
            client_at(cluster, "east", "warm2").open("/store/east-only.root"), limit=120
        )
        client = client_at(cluster, "west", "lonely")
        res = cluster.run_process(client.open("/store/east-only.root"), limit=120)
        assert res.node == cluster.servers[1]  # served, remotely

    def test_unsited_client_gets_plain_selection(self):
        cluster = wan_cluster(locality=True)
        warm(cluster)
        nodes = set()
        for i in range(4):
            client = cluster.client(f"nosite{i}")  # never placed at a site
            nodes.add(cluster.run_process(client.open("/store/hot.root"), limit=120).node)
        assert len(nodes) == 2  # round-robin across both replicas

    def test_disabled_flag_ignores_sites(self):
        cluster = wan_cluster(locality=False)
        warm(cluster)
        west_nodes = set(opens_from(cluster, "west"))
        assert len(west_nodes) == 2  # alternates, ignoring locality


class TestRepeatLogin:
    HEARTBEAT = 2.0

    def _past_next_heartbeat(self, cluster):
        """Heartbeats leave at whole multiples of the interval."""
        beat = self.HEARTBEAT
        cluster.run(until=beat * math.ceil(cluster.sim.now / beat) + 0.05)

    def test_repeat_login_clears_the_site_until_the_next_heartbeat(self):
        """A Login rewrites the manager's record of the child: its site is
        unknown until its next heartbeat, so meanwhile a west client's
        redirect falls back to every holder."""
        cluster = wan_cluster(locality=True, heartbeat_interval=self.HEARTBEAT)
        self._past_next_heartbeat(cluster)
        mgr = cluster.manager_cmsd()
        east, west = cluster.servers[0], cluster.servers[2]
        record = mgr.membership.slots[mgr.membership.slot_of(west)]
        assert record.site == "west"

        cluster.node(west).cmsd._login_to_parent(cluster.managers[0])
        cluster.settle(0.1)
        assert mgr.membership.slot_of(west) == record.index
        assert record.site == ""
        # A file both replicas hold, first looked up after the login (the
        # login re-queries west for anything cached before it).
        for server in (east, west):
            cluster.place("/store/fresh.root", server, size=64)
        cluster.run_process(
            client_at(cluster, "east", "warm-fresh").open("/store/fresh.root"), limit=120
        )
        cluster.settle(0.1)

        def west_opens(tag):
            return {
                cluster.run_process(
                    client_at(cluster, "west", f"{tag}{i}").open("/store/fresh.root"), limit=120
                ).node
                for i in range(3)
            }

        assert west_opens("before") == {east, west}
        assert record.site == ""  # no heartbeat yet: every open saw no site

        self._past_next_heartbeat(cluster)
        assert record.site == "west"
        assert west_opens("after") == {west}
