"""SimSan: the sanitizer sweeps clean runs silently and catches corruption."""

import pytest

from repro.analysis.simsan import Sanitizer
from repro.analysis.violations import (
    AnchorLeakViolation,
    CorrectionCounterViolation,
    InvariantViolation,
    LoadFactorViolation,
    VectorInvariantViolation,
)
from repro.cluster.scalla import ScallaCluster, ScallaConfig
from repro.core.cache import NameCache
from repro.core.corrections import ClusterMembership
from repro.core.crc32 import hash_name
from repro.core.location import LocationObject
from repro.core.response_queue import AccessMode, ResponseQueue


def sanitized_cluster(n=8, seed=7):
    cfg = ScallaConfig(seed=seed, fanout=n, sanitize=True, lifetime=1200.0)
    cluster = ScallaCluster(n, config=cfg)
    cluster.populate([f"/store/f{i}" for i in range(12)])
    cluster.settle()
    return cluster


class TestSanitizedCluster:
    def test_config_plumbs_through(self):
        cluster = sanitized_cluster()
        mgr = cluster.manager_cmsd()
        assert mgr.sanitizer is not None
        # Servers have no cache to sweep, but their subordinate half
        # (parents, re-home state) is checked every heartbeat.
        server = cluster.nodes[cluster.servers[0]].cmsd
        assert server.sanitizer is not None
        cluster.run(until=cluster.sim.now + 3 * cluster.config.heartbeat_interval)
        assert server.sanitizer.sweeps > 0

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("SCALLA_SANITIZE", raising=False)
        assert ScallaConfig().sanitize is False

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("SCALLA_SANITIZE", "1")
        assert ScallaConfig().sanitize is True
        monkeypatch.setenv("SCALLA_SANITIZE", "0")
        assert ScallaConfig().sanitize is False

    def test_clean_workload_sweeps_silently(self):
        cluster = sanitized_cluster()
        client = cluster.client()
        for i in range(12):
            node, pending = cluster.run_process(client.locate(f"/store/f{i}"))
            assert node and not pending
        # Cross several eviction ticks so the full sweep hook runs.
        cluster.run(until=cluster.sim.now + 3 * cluster.config.lifetime / 64)
        san = cluster.manager_cmsd().sanitizer
        assert san.sweeps >= 3
        assert san.objects_checked > 0

    def test_corrupted_cache_is_caught(self):
        """The acceptance scenario: corrupt a live object, sweep, get the
        typed violation with node context."""
        cluster = sanitized_cluster()
        client = cluster.client()
        cluster.run_process(client.locate("/store/f0"))
        mgr = cluster.manager_cmsd()
        obj = next(iter(mgr.cache.table.visible()))
        obj.v_q = obj.v_h = 0b1  # break V_q ∧ (V_h|V_p) == 0
        with pytest.raises(VectorInvariantViolation) as exc_info:
            mgr.sanitizer.sweep(cache=mgr.cache, rq=mgr.rq, membership=mgr.membership)
        assert exc_info.value.invariant == "vq-disjoint"
        assert exc_info.value.node == mgr.node_id.name


def make(key):
    obj = LocationObject()
    obj.assign(key, hash_name(key), c_n=0, t_a=0)
    return obj


class TestObjectChecks:
    def test_vh_vp_overlap(self):
        san = Sanitizer(node="n1")
        obj = make("/a")
        obj.v_h = obj.v_p = 0b10
        with pytest.raises(VectorInvariantViolation) as exc_info:
            san.check_object(obj)
        assert exc_info.value.invariant == "vh-vp-disjoint"
        assert exc_info.value.node == "n1"

    def test_counts_objects(self):
        san = Sanitizer()
        san.check_object(make("/a"))
        san.check_object(make("/b"))
        assert san.objects_checked == 2


class TestCacheChecks:
    def test_load_factor_violation(self):
        """Bypass the growth trigger to exceed 80%: SimSan must notice."""
        cache = NameCache(initial_size=89)
        san = Sanitizer(node="n1")
        for i in range(80):  # 80 > 0.8 * 89
            obj = make(f"/f{i}")
            idx = obj.hash_val % cache.table.size
            obj.next = cache.table._heads[idx]
            cache.table._heads[idx] = obj
            cache.table._count += 1
            cache.windows.add(obj)
        with pytest.raises(LoadFactorViolation) as exc_info:
            san.check_cache(cache)
        assert exc_info.value.invariant == "load-factor"
        assert exc_info.value.node == "n1"

    def test_chained_object_missing_from_table(self):
        cache = NameCache()
        cache.lookup("/store/a", now=0.0)
        ghost = make("/store/ghost")
        cache.windows.add(ghost)  # chained but never inserted into the table
        san = Sanitizer(node="n1")
        with pytest.raises(InvariantViolation) as exc_info:
            san.check_cache(cache)
        assert exc_info.value.invariant == "chain-table-sync"

    def test_cn_from_the_future(self):
        cache = NameCache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        ref.get().c_n = 99  # membership.n_c is still 0
        san = Sanitizer(node="n1")
        with pytest.raises(CorrectionCounterViolation) as exc_info:
            san.check_cache(cache)
        assert exc_info.value.invariant == "cn-order"

    def test_clean_cache_passes(self):
        cache = NameCache()
        for i in range(20):
            cache.lookup(f"/store/f{i}", now=0.0)
        Sanitizer().check_cache(cache)


class TestMembershipChecks:
    def test_slot_counter_exceeds_master(self):
        m = ClusterMembership()
        m.login("s1", ["/store"])
        m.c[0] = m.n_c + 5
        with pytest.raises(CorrectionCounterViolation) as exc_info:
            Sanitizer().check_membership(m)
        assert exc_info.value.invariant == "ci-order"

    def test_duplicate_stamps(self):
        m = ClusterMembership()
        m.login("s1", ["/store"])
        m.login("s2", ["/store"])
        m.c[1] = m.c[0]
        with pytest.raises(CorrectionCounterViolation) as exc_info:
            Sanitizer().check_membership(m)
        assert exc_info.value.invariant == "ci-distinct"

    def test_unstamped_occupied_slot(self):
        m = ClusterMembership()
        m.login("s1", ["/store"])
        m.c[0] = 0
        with pytest.raises(CorrectionCounterViolation) as exc_info:
            Sanitizer().check_membership(m)
        assert exc_info.value.invariant == "ci-stamped"

    def test_offline_mask_must_be_subset(self):
        m = ClusterMembership()
        m.login("s1", ["/store"])
        m.v_offline |= 0b10  # slot 1 is unoccupied
        with pytest.raises(InvariantViolation) as exc_info:
            Sanitizer().check_membership(m)
        assert exc_info.value.invariant == "offline-subset"

    def test_clean_membership_passes(self):
        m = ClusterMembership()
        m.login("s1", ["/store"])
        m.login("s2", ["/store"])
        m.disconnect("s2")
        Sanitizer().check_membership(m)


class TestQueueChecks:
    def _queue_with_waiter(self):
        rq = ResponseQueue(anchors=8)
        loc = make("/store/a")
        rq.add_waiter(loc, AccessMode.READ, payload="w", now=0.0)
        return rq, loc

    def test_clean_queue_passes(self):
        rq, loc = self._queue_with_waiter()
        Sanitizer().check_queue(rq)
        rq.on_response(loc, server=3, write_capable=True)
        Sanitizer().check_queue(rq)

    def test_active_count_desync(self):
        rq, _ = self._queue_with_waiter()
        rq._active = 0
        with pytest.raises(AnchorLeakViolation) as exc_info:
            Sanitizer().check_queue(rq)
        assert exc_info.value.invariant == "active-count"

    def test_unreachable_anchor_leak(self):
        rq, _ = self._queue_with_waiter()
        rq._timeline.clear()  # the anchor can now never expire
        with pytest.raises(AnchorLeakViolation) as exc_info:
            Sanitizer().check_queue(rq)
        assert exc_info.value.invariant == "timeline-reach"

    def test_anchor_without_waiters(self):
        rq, loc = self._queue_with_waiter()
        anchor = rq._anchors[loc.rq_read]
        anchor.waiters.clear()
        with pytest.raises(AnchorLeakViolation) as exc_info:
            Sanitizer().check_queue(rq)
        assert exc_info.value.invariant == "anchor-waiters"

    def test_partition_violation(self):
        rq, _ = self._queue_with_waiter()
        rq._free.pop()
        rq._active = len(rq._anchors) - len(rq._free) - 1
        with pytest.raises(AnchorLeakViolation) as exc_info:
            Sanitizer().check_queue(rq)
        assert exc_info.value.invariant in ("anchor-partition", "active-count")


    def test_in_use_anchor_on_free_list_among_unbuilt_slots(self):
        """Free-list slots whose anchors were never built must not hide an
        in-use anchor pushed onto the free list."""
        rq, loc = self._queue_with_waiter()
        assert rq._anchors[rq._free[0]] is None
        rq._free[0] = loc.rq_read  # corrupt: swap a free slot for the busy one
        with pytest.raises(AnchorLeakViolation) as exc_info:
            Sanitizer().check_queue(rq)
        assert exc_info.value.invariant == "free-in-use"

    def test_duplicate_free_index_is_caught(self):
        rq, _ = self._queue_with_waiter()
        rq._free.append(rq._free[-1])
        with pytest.raises(AnchorLeakViolation) as exc_info:
            Sanitizer().check_queue(rq)
        assert exc_info.value.invariant == "free-distinct"


class TestSubordinateChecks:
    """Re-home path invariants (fault-tolerance PR): corrupt a live
    subordinate cmsd's parent bookkeeping and SimSan must object."""

    def _server_cmsd(self):
        cluster = sanitized_cluster(n=4, seed=9)
        return cluster.nodes[cluster.servers[0]].cmsd

    def test_clean_subordinate_passes(self):
        cmsd = self._server_cmsd()
        cmsd.sanitizer.check_subordinate(cmsd)

    def test_duplicate_parent(self):
        cmsd = self._server_cmsd()
        cmsd.parents = cmsd.parents + (cmsd.parents[0],)
        with pytest.raises(InvariantViolation) as exc_info:
            cmsd.sanitizer.check_subordinate(cmsd)
        assert exc_info.value.invariant == "parents-distinct"
        assert exc_info.value.node == cmsd.node_id.name

    def test_stale_silence_clock(self):
        cmsd = self._server_cmsd()
        cmsd._last_parent_ack["ghost-parent"] = 0.0
        with pytest.raises(InvariantViolation) as exc_info:
            cmsd.sanitizer.check_subordinate(cmsd)
        assert exc_info.value.invariant == "ack-keys-subset"

    def test_stale_relogin_backoff(self):
        cmsd = self._server_cmsd()
        cmsd._relogin_state["ghost-parent"] = (1, 99.0)
        with pytest.raises(InvariantViolation) as exc_info:
            cmsd.sanitizer.check_subordinate(cmsd)
        assert exc_info.value.invariant == "relogin-keys-subset"

    def test_emptied_standby_pool(self):
        cmsd = self._server_cmsd()
        cmsd.standbys = ("somewhere",)
        cmsd._standby_pool = ()
        with pytest.raises(InvariantViolation) as exc_info:
            cmsd.sanitizer.check_subordinate(cmsd)
        assert exc_info.value.invariant == "standby-pool-nonempty"

    def test_parentless_with_pool(self):
        cmsd = self._server_cmsd()
        cmsd.parents = ()
        cmsd._last_parent_ack.clear()
        cmsd._relogin_state.clear()
        cmsd._standby_pool = ("somewhere",)
        with pytest.raises(InvariantViolation) as exc_info:
            cmsd.sanitizer.check_subordinate(cmsd)
        assert exc_info.value.invariant == "parents-nonempty"
