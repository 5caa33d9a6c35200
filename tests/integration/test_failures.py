"""Integration: failures and recovery — Scalla's third design objective.

Covers the four §III-A4 membership cases end-to-end, client recovery via
refresh+avoid (§III-C1), manager restart rebuilding state from re-logins
(§V "within seconds of restarting"), and manager replica failover.
"""

import pytest

from repro.cluster import NoSuchFile, ScallaCluster, ScallaConfig
from repro.core import bitvec


def fast_config(**kw):
    """Short timers so failure scenarios run in seconds of simulated time."""
    defaults = dict(
        seed=21,
        heartbeat_interval=0.2,
        disconnect_timeout=0.7,
        drop_timeout=5.0,
        full_delay=1.0,
    )
    defaults.update(kw)
    return ScallaConfig(**defaults)


class TestServerCrashRecovery:
    def test_client_recovers_via_refresh_and_avoid(self):
        """Replica surviving elsewhere: the client gets vectored to the dead
        server, reports it, and lands on the живой copy."""
        cluster = ScallaCluster(4, config=fast_config())
        cluster.populate(["/store/f.root"], copies=2, size=128)
        cluster.settle()
        # Warm the cache, note which server we'd be sent to first.
        first = cluster.run_process(cluster.client().open("/store/f.root"), limit=60)
        holders = [s for s in cluster.servers if cluster.node(s).fs.exists("/store/f.root")]
        cluster.node(first.node).crash()
        cluster.settle(0.05)
        res = cluster.run_process(cluster.client().open("/store/f.root"), limit=60)
        assert res.node in holders and res.node != first.node

    def test_sole_holder_crash_then_restart(self):
        cluster = ScallaCluster(3, config=fast_config())
        cluster.populate(["/store/solo.root"], copies=1, size=64)
        cluster.settle()
        holder = cluster.run_process(cluster.client().open("/store/solo.root"), limit=60).node
        cluster.node(holder).crash()
        cluster.run(until=cluster.sim.now + 2.0)  # heartbeats lapse -> offline
        mgr = cluster.manager_cmsd()
        slot = mgr.membership.slot_of(holder)
        assert slot is not None  # disconnected, NOT dropped (case 1)
        assert not mgr.membership.slot(slot).online
        cluster.node(holder).restart()
        cluster.run(until=cluster.sim.now + 1.0)  # reconnect (case 3)
        assert mgr.membership.slot(mgr.membership.slot_of(holder)).online
        res = cluster.run_process(cluster.client().open("/store/solo.root"), limit=60)
        assert res.node == holder

    def test_silent_server_dropped_after_drop_timeout(self):
        """Case 2: a server that stays away is dropped and its V_m bits go."""
        cluster = ScallaCluster(3, config=fast_config(drop_timeout=2.0))
        cluster.populate(["/store/a.root"], size=32)
        cluster.settle()
        victim = cluster.servers[0]
        mgr = cluster.manager_cmsd()
        assert mgr.membership.slot_of(victim) is not None
        cluster.node(victim).crash()
        cluster.run(until=cluster.sim.now + 6.0)
        assert mgr.membership.slot_of(victim) is None
        v_m = mgr.membership.eligible("/store/a.root")
        assert bitvec.count(v_m) == 2  # only the two survivors

    def test_dropped_server_rejoins_as_new(self):
        """Case 4: back after the drop window -> fresh login, fresh epoch."""
        cluster = ScallaCluster(3, config=fast_config(drop_timeout=1.5))
        cluster.populate(["/store/b.root"], size=32)
        cluster.settle()
        victim = cluster.servers[1]
        mgr = cluster.manager_cmsd()
        n_c_before = mgr.membership.n_c
        cluster.node(victim).crash()
        cluster.run(until=cluster.sim.now + 4.0)  # well past drop
        assert mgr.membership.slot_of(victim) is None
        cluster.node(victim).restart()
        cluster.run(until=cluster.sim.now + 1.0)
        assert mgr.membership.slot_of(victim) is not None
        assert mgr.membership.n_c > n_c_before


class TestManagerRestart:
    def test_manager_rebuilds_membership_from_relogins(self):
        """§V: no persistent state — a restarted manager re-learns its
        subordinates from their heartbeats/re-logins within seconds."""
        cluster = ScallaCluster(4, config=fast_config(relogin_timeout=0.5))
        cluster.populate(["/store/c.root"], size=32)
        cluster.settle()
        mgr_name = cluster.managers[0]
        cluster.node(mgr_name).restart()
        assert cluster.manager_cmsd().membership.member_count() == 0  # fresh state
        t0 = cluster.sim.now
        cluster.run(until=cluster.sim.now + 3.0)
        assert cluster.manager_cmsd().membership.member_count() == 4
        # And files are servable again.
        res = cluster.run_process(cluster.client().open("/store/c.root"), limit=60)
        assert res.size == 32
        assert cluster.sim.now - t0 < 10.0  # "within seconds"

    def test_manager_replica_failover(self):
        cluster = ScallaCluster(
            4, config=fast_config(managers=2)
        )
        cluster.populate(["/store/d.root"], size=32)
        cluster.settle()
        cluster.node(cluster.managers[0]).crash()
        cluster.settle(0.05)
        client = cluster.client()
        res = cluster.run_process(client.open("/store/d.root"), limit=60)
        assert res.size == 32
        assert client.stats.failovers >= 1


class TestPartitions:
    def test_partition_heals_and_service_resumes(self):
        cluster = ScallaCluster(2, config=fast_config())
        cluster.populate(["/store/e.root"], copies=2, size=32)
        cluster.settle()
        mgr_cmsd_host = cluster.manager_cmsd().host.name
        srv = cluster.servers[0]
        cluster.network.partition(mgr_cmsd_host, f"{srv}.cmsd")
        cluster.run(until=cluster.sim.now + 2.0)
        res = cluster.run_process(cluster.client().open("/store/e.root"), limit=60)
        assert res.size == 32  # the other replica serves
        cluster.network.heal(mgr_cmsd_host, f"{srv}.cmsd")
        cluster.run(until=cluster.sim.now + 2.0)
        mgr = cluster.manager_cmsd()
        slot = mgr.membership.slot_of(srv)
        assert slot is not None and mgr.membership.slot(slot).online


class TestDataLoss:
    def test_file_lost_with_sole_holder(self):
        cluster = ScallaCluster(3, config=fast_config())
        cluster.populate(["/store/precious.root"], copies=1, size=16)
        cluster.settle()
        holder = cluster.run_process(
            cluster.client().open("/store/precious.root"), limit=60
        ).node
        cluster.node(holder).crash()
        cluster.run(until=cluster.sim.now + 2.0)
        client = cluster.client()
        with pytest.raises((NoSuchFile, Exception)):
            cluster.run_process(client.open("/store/precious.root"), limit=120)
