"""Tests for the locality-aware selection extension (WAN federations):
a client that names its site is sent to holders at that site."""

import math

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.ids import cmsd_host, xrootd_host
from repro.sim.latency import Fixed


WAN = Fixed(40e-3)


def wan_cluster(heartbeat_interval: float = 0.2):
    cluster = ScallaCluster(
        4,
        config=ScallaConfig(seed=341, heartbeat_interval=heartbeat_interval),
    )
    net = cluster.network
    # Two sites, two servers each; the manager sits at site east.
    for i, server in enumerate(cluster.servers):
        site = "east" if i < 2 else "west"
        net.set_host_site(cmsd_host(server), site)
        net.set_host_site(xrootd_host(server), site)
    net.set_host_site(cmsd_host(cluster.managers[0]), "east")
    net.set_site_latency("east", "west", WAN)
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
        cluster = wan_cluster()
        # Warm the location cache (cold opens are answered by first
        # responder, which is a latency race, not a policy decision).
        warm(cluster)
        west_nodes = set(opens_from(cluster, "west"))
        assert west_nodes == {cluster.servers[2]}

    def test_east_clients_stay_east(self):
        cluster = wan_cluster()
        warm(cluster)
        east_nodes = set(opens_from(cluster, "east"))
        assert east_nodes == {cluster.servers[0]}

    def test_latency_benefit_is_real(self):
        """A west client that names its site against one at the same place
        that names none (its links to east hosts cost the WAN hop too)."""
        cluster = wan_cluster()
        warm(cluster)
        net = cluster.network
        east = [cmsd_host(cluster.managers[0])] + [
            h for s in cluster.servers[:2] for h in (cmsd_host(s), xrootd_host(s))
        ]

        def open_latencies(sited: bool):
            latencies = []
            for i in range(4):
                if sited:
                    client = client_at(cluster, "west", f"sited{i}")
                else:
                    client = cluster.client(f"unsited{i}")
                    for host in east:
                        net.set_link_latency(client.host.name, host, WAN)
                res = cluster.run_process(client.open("/store/hot.root"), limit=120)
                latencies.append(res.latency)
            return latencies

        unsited, sited = open_latencies(False), open_latencies(True)
        # Both locates cross the WAN (the manager is east).  The sited
        # client's open stays west; plain round-robin sends the unsited
        # client's opens east half the time, each one more WAN round trip.
        assert sum(sited) < sum(unsited)
        assert max(sited) < max(unsited)

    def test_falls_back_when_no_local_replica(self):
        cluster = wan_cluster()
        cluster.place("/store/east-only.root", cluster.servers[1], size=64)
        cluster.run_process(
            client_at(cluster, "east", "warm2").open("/store/east-only.root"), limit=120
        )
        client = client_at(cluster, "west", "lonely")
        res = cluster.run_process(client.open("/store/east-only.root"), limit=120)
        assert res.node == cluster.servers[1]  # served, remotely

    def test_unsited_client_gets_plain_selection(self):
        cluster = wan_cluster()
        warm(cluster)
        nodes = set()
        for i in range(4):
            client = cluster.client(f"nosite{i}")  # never placed at a site
            nodes.add(cluster.run_process(client.open("/store/hot.root"), limit=120).node)
        assert len(nodes) == 2  # round-robin across both replicas


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
        cluster = wan_cluster(heartbeat_interval=self.HEARTBEAT)
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
