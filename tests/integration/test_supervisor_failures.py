"""Integration: interior-node (supervisor) failures.

The paper's recoverability argument applies at every tree level: a
supervisor is just another replaceable node whose state is reconstructible.
These tests kill supervisors mid-service and verify the tree heals — via
re-login when the same host returns (the seed behaviour, kept under
``rehome=False``), and via standby re-homing when it does not: orphaned
subordinates adopt the dead parent's sibling (else the grandparent), whose
membership machinery treats the login as an ordinary §III-A4 "server
added" event.
"""

from repro.cluster import ScallaCluster, ScallaConfig


def tree_cluster(**overrides):
    cfg = dict(
        seed=401,
        fanout=4,  # manager -> 2 supervisors -> 8 servers
        heartbeat_interval=0.2,
        disconnect_timeout=0.7,
        drop_timeout=30.0,
        relogin_timeout=0.5,
        full_delay=1.0,
    )
    cfg.update(overrides)
    c = ScallaCluster(8, config=ScallaConfig(**cfg))
    # One replica in each supervisor's subtree (servers 0-3 vs 4-7), so a
    # whole-subtree outage leaves every file reachable.
    for i in range(16):
        c.place(f"/store/t/f{i}.root", c.servers[i % 4], size=64)
        c.place(f"/store/t/f{i}.root", c.servers[4 + (i % 4)], size=64)
    c.settle(0.5)
    return c


class TestSupervisorCrash:
    def test_manager_marks_supervisor_offline(self):
        cluster = tree_cluster()
        sup = cluster.topology.supervisors[0]
        mgr = cluster.manager_cmsd()
        cluster.node(sup).crash()
        cluster.run(until=cluster.sim.now + 2.0)
        slot = mgr.membership.slot_of(sup)
        assert slot is not None and not mgr.membership.slot(slot).online

    def test_files_under_other_supervisor_unaffected(self):
        cluster = tree_cluster()
        # Find a file served via supervisor 1's subtree.
        res = cluster.run_process(cluster.client().open("/store/t/f0.root"), limit=60)
        serving_sup = cluster.topology.nodes[res.node].parents[0]
        other_sup = next(s for s in cluster.topology.supervisors if s != serving_sup)
        cluster.node(other_sup).crash()
        cluster.run(until=cluster.sim.now + 2.0)
        res2 = cluster.run_process(cluster.client().open("/store/t/f0.root"), limit=60)
        assert res2.size == 64

    def test_replica_under_other_supervisor_takes_over(self):
        """copies=2 round-robin puts replicas in different subtrees, so a
        whole subtree outage still leaves every file reachable — even with
        re-homing off (pure replica redundancy)."""
        cluster = tree_cluster(rehome=False)
        sup = cluster.topology.supervisors[0]
        cluster.node(sup).crash()
        cluster.run(until=cluster.sim.now + 2.0)
        for i in range(0, 16, 3):
            res = cluster.run_process(
                cluster.client().open(f"/store/t/f{i}.root"), limit=120
            )
            serving_sup = cluster.topology.nodes[res.node].parents[0]
            assert serving_sup != sup

    def test_supervisor_restart_reattaches_subtree(self):
        """Seed semantics (rehome=False): the subtree waits for the same
        host and re-attaches by re-login when it returns."""
        cluster = tree_cluster(rehome=False)
        sup = cluster.topology.supervisors[0]
        subtree = set(cluster.topology.nodes[sup].children)
        cluster.node(sup).crash()
        cluster.run(until=cluster.sim.now + 2.0)
        cluster.node(sup).restart()
        cluster.run(until=cluster.sim.now + 3.0)
        # The restarted (state-less) supervisor re-learned its children...
        sup_cmsd = cluster.node(sup).cmsd
        assert sup_cmsd.membership.member_count() == len(subtree)
        # ...and the manager sees it online again.
        mgr = cluster.manager_cmsd()
        assert mgr.membership.slot(mgr.membership.slot_of(sup)).online
        # Files in that subtree resolve through it once more.
        res = cluster.run_process(cluster.client().open("/store/t/f1.root"), limit=120)
        assert res.size == 64


class TestSupervisorRehome:
    """Supervisor failover: the crashed parent never comes back."""

    def test_seed_behavior_strands_sole_copy(self):
        """Documented regression (rehome=False): with the only replica
        under the dead supervisor, the file becomes unreachable — its
        server is alive but orphaned, heartbeating into the void, while
        the client burns its entire retry budget on full-delay Waits."""
        cluster = tree_cluster(rehome=False)
        sup = cluster.topology.supervisors[0]
        lonely = cluster.topology.nodes[sup].children[0]
        cluster.place("/store/t/only.root", lonely, size=64)
        cluster.node(sup).crash()
        cluster.run(until=cluster.sim.now + 2.0)
        import pytest

        from repro.cluster.client import ScallaError

        with pytest.raises(ScallaError):
            cluster.run_process(
                cluster.client().open("/store/t/only.root"), limit=120
            )

    def test_rehome_within_one_relogin_timeout(self):
        """Orphans adopt the sibling supervisor within ~relogin_timeout
        (plus a heartbeat for detection)."""
        cluster = tree_cluster()
        sup0, sup1 = cluster.topology.supervisors[:2]
        children = cluster.topology.nodes[sup0].children
        t0 = cluster.sim.now
        cluster.node(sup0).crash()
        relogin = cluster.config.relogin_timeout
        hb = cluster.config.heartbeat_interval
        cluster.run(until=t0 + relogin + 3 * hb)
        for child in children:
            assert cluster.node(child).current_parents == (sup1,)
            assert cluster.node(child).cmsd.stats.rehomes == 1
        # The adopter registered all four as ordinary membership additions.
        sup1_cmsd = cluster.node(sup1).cmsd
        for child in children:
            assert sup1_cmsd.membership.slot_of(child) is not None
        assert sup1_cmsd.membership.member_count() == 8

    def test_cold_locate_after_rehome_is_fast(self):
        """Acceptance: supervisor crashed and never restarted — a cold
        locate for a file whose only copy sits in the former subtree
        completes at fast-path latency (< 1 s with the paper's 5 s full
        delay), where the seed either waits >= full_delay or fails."""
        cluster = tree_cluster(full_delay=5.0)
        sup0 = cluster.topology.supervisors[0]
        lonely = cluster.topology.nodes[sup0].children[0]
        cluster.place("/store/t/only.root", lonely, size=64)
        cluster.node(sup0).crash()
        cluster.run(until=cluster.sim.now + 2.0)
        res = cluster.run_process(
            cluster.client().open("/store/t/only.root"), limit=120
        )
        assert res.node == lonely
        assert res.latency < 1.0

    def test_both_supervisors_dead_rehomes_to_manager(self):
        """Standby rotation escalates past dead siblings to the
        grandparent level: with every supervisor gone, servers end up
        logged into the manager and files stay reachable."""
        cluster = tree_cluster()
        sup0, sup1 = cluster.topology.supervisors[:2]
        cluster.node(sup0).crash()
        cluster.node(sup1).crash()
        cluster.run(until=cluster.sim.now + 4.0)
        for srv in cluster.servers:
            assert cluster.node(srv).current_parents == ("mgr0",)
        res = cluster.run_process(cluster.client().open("/store/t/f3.root"), limit=120)
        assert res.size == 64

    def test_orphan_accounting_and_relogin_backoff(self):
        """A subordinate with nowhere to go (manager dead, no standbys)
        records orphaned time and backs off its re-login storm instead of
        firing once per heartbeat forever."""
        cluster = tree_cluster()
        sup0 = cluster.topology.supervisors[0]
        cluster.node("mgr0").crash()
        cluster.run(until=cluster.sim.now + 10.0)
        cmsd = cluster.node(sup0).cmsd
        assert cmsd.stats.orphaned_seconds > 0
        # ~50 heartbeats elapsed; unbounded re-login would send ~50 logins
        # to the dead manager.  Backoff (0.5 * 2^n, capped) keeps it small.
        assert cmsd.stats.relogins_by_parent.get("mgr0", 0) <= 8
        assert cmsd.stats.rehomes == 0  # top level: nowhere to re-home

    def test_orphans_leave_a_full_adopter(self):
        """A full sibling ignores an orphan's Login but still answers its
        heartbeats with ``known=False``.  Those acks must not reset the
        orphan's silence clock, or the whole subtree stays wedged on the
        full sibling while the manager has free slots."""
        cluster = ScallaCluster(128, config=ScallaConfig(seed=1))  # 2 full supervisors
        sup0, sup1 = cluster.topology.supervisors
        cluster.place("/store/x/f.root", "srv00005", size=64)
        cluster.settle(0.5)
        assert cluster.node("srv00005").current_parents == (sup0,)
        cluster.node(sup0).crash()
        cluster.run(until=cluster.sim.now + 30.0)
        orphans = cluster.topology.nodes[sup0].children
        adopted = [o for o in orphans if cluster.node(o).current_parents == ("mgr0",)]
        mgr = cluster.manager_cmsd()
        # The manager keeps the dead supervisor's slot until drop_timeout,
        # so 64 - 2 slots are free for orphans, and all of them get used.
        assert len(adopted) == 62
        assert mgr.membership.member_count() == 64
        assert cluster.node(sup1).cmsd.membership.member_count() == 64  # still full
        node, _pending = cluster.run_process(
            cluster.client().locate("/store/x/f.root"), limit=600
        )
        assert node == "srv00005"


class TestResponseCompression:
    def test_compression_ratio_measured(self):
        """Quantify §II-B2's compression: with every leaf holding the file,
        the manager hears from supervisors only — a fanout-factor reduction
        in upward traffic."""
        cluster = tree_cluster()
        for s in cluster.servers:
            cluster.place("/store/everywhere.root", s, size=32)
        mgr = cluster.manager_cmsd()
        h0 = mgr.stats.haves_received
        cluster.run_process(cluster.client().open("/store/everywhere.root"), limit=60)
        cluster.settle(0.05)
        upward = mgr.stats.haves_received - h0
        leaf_responses = sum(
            cluster.node(s).cmsd.stats.haves_sent for s in cluster.servers
        )
        assert leaf_responses == 8  # every leaf answered its supervisor
        assert upward <= 2  # but the manager heard at most one per supervisor
