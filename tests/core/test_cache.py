"""Unit tests for the NameCache facade."""

import gc
import tracemalloc

import pytest

from repro.core import bitvec
from repro.core.cache import NameCache
from repro.core.corrections import ClusterMembership
from repro.core.eviction import WINDOW_COUNT


def cluster_cache(n_servers=4, path="/store"):
    m = ClusterMembership()
    for i in range(n_servers):
        m.login(f"srv-{i}", [path])
    return NameCache(m, lifetime=64.0)  # 1 s per window tick


class TestLookup:
    def test_miss_creates_with_vq_equal_vm(self):
        cache = cluster_cache(3)
        ref, is_new = cache.lookup("/store/a.root", now=0.0)
        assert is_new
        obj = ref.get()
        assert obj.v_q == bitvec.from_indices([0, 1, 2])
        assert obj.v_h == 0 and obj.v_p == 0

    def test_hit_returns_same_object(self):
        cache = cluster_cache()
        ref1, _ = cache.lookup("/store/a.root", now=0.0)
        ref2, is_new = cache.lookup("/store/a.root", now=1.0)
        assert not is_new
        assert ref2.get() is ref1.get()
        assert cache.stats.hits == 1

    def test_lookup_without_add(self):
        cache = cluster_cache()
        ref, is_new = cache.lookup("/store/missing", now=0.0, add=False)
        assert ref is None and not is_new
        assert cache.stats.adds == 0

    def test_unexported_path_has_empty_vq(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/cms/file", now=0.0)
        assert ref.get().v_q == 0
        assert ref.get().known_empty

    def test_hit_applies_corrections_for_new_server(self):
        cache = cluster_cache(2)
        ref, _ = cache.lookup("/store/a.root", now=0.0)
        new_slot = cache.membership.login("srv-late", ["/store"])
        ref2, _ = cache.lookup("/store/a.root", now=1.0)
        assert bitvec.has(ref2.get().v_q, new_slot)
        assert cache.stats.corrections == 1


class TestWindowMemo:
    def test_memo_hit_on_second_fetch_in_same_window(self):
        cache = cluster_cache(2)
        cache.lookup("/store/a", now=0.0)
        cache.lookup("/store/b", now=0.0)
        cache.membership.login("srv-late", ["/store"])
        cache.lookup("/store/a", now=1.0)  # generates V_wc
        cache.lookup("/store/b", now=1.0)  # must reuse it
        assert cache.stats.vwc_misses == 1
        assert cache.stats.vwc_hits == 1

    def test_memo_invalidated_by_further_membership_change(self):
        cache = cluster_cache(2)
        cache.lookup("/store/a", now=0.0)
        cache.lookup("/store/b", now=0.0)
        cache.membership.login("srv-x", ["/store"])
        cache.lookup("/store/a", now=1.0)
        cache.membership.login("srv-y", ["/store"])
        cache.lookup("/store/b", now=2.0)  # memo stale: n_c moved on
        assert cache.stats.vwc_misses == 2

    def test_memo_result_equals_direct_computation(self):
        cache = cluster_cache(2)
        cache.lookup("/store/a", now=0.0)
        cache.lookup("/store/b", now=0.0)
        s = cache.membership.login("srv-late", ["/store"])
        ra, _ = cache.lookup("/store/a", now=1.0)
        rb, _ = cache.lookup("/store/b", now=1.0)
        assert bitvec.has(ra.get().v_q, s)
        assert bitvec.has(rb.get().v_q, s)
        assert ra.get().v_q == rb.get().v_q


class TestHolderUpdates:
    def test_update_holder(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        obj = cache.update_holder("/store/a", ref.hash_val, server=2)
        assert obj is ref.get()
        assert bitvec.has(obj.v_h, 2)
        assert not bitvec.has(obj.v_q, 2)

    def test_update_holder_pending(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        cache.update_holder("/store/a", ref.hash_val, server=1, pending=True)
        assert bitvec.has(ref.get().v_p, 1)

    def test_late_response_for_expired_object_dropped(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        cache.invalidate(ref)
        assert cache.update_holder("/store/a", ref.hash_val, server=0) is None
        assert cache.stats.stale_holder_updates == 1


class TestRefresh:
    def test_refresh_resets_vectors_and_renews_ta(self):
        cache = cluster_cache(3)
        ref, _ = cache.lookup("/store/a", now=0.0)
        cache.update_holder("/store/a", ref.hash_val, server=1)
        cache.tick()
        cache.tick()
        live = cache.refresh(ref, now=2.0)
        obj = live.get()
        assert obj.v_h == 0
        assert obj.v_q == bitvec.from_indices([0, 1, 2])
        assert obj.t_a == cache.windows.current_window
        assert obj.chain_window == 0  # deferred re-chaining

    def test_refresh_stale_ref_fails_gracefully(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        cache.invalidate(ref)
        cache.run_background_removal()
        assert cache.refresh(ref, now=1.0) is None

    def test_refreshed_object_survives_old_window_sweep(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        cache.tick()
        cache.refresh(ref, now=1.0)
        for _ in range(WINDOW_COUNT - 1):
            cache.tick()
        cache.run_background_removal()
        again, is_new = cache.lookup("/store/a", now=64.0)
        assert not is_new


class TestEvictionIntegration:
    def test_object_expires_after_lifetime(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        for _ in range(WINDOW_COUNT):
            cache.tick()
        assert not ref.valid  # hidden -> generation bumped
        removed = cache.run_background_removal()
        assert removed == 1
        _, is_new = cache.lookup("/store/a", now=100.0)
        assert is_new

    def test_storage_recycled_not_freed(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        old_obj = ref.obj
        for _ in range(WINDOW_COUNT):
            cache.tick()
        cache.run_background_removal()
        ref2, _ = cache.lookup("/store/b", now=100.0)
        assert ref2.obj is old_obj  # same storage, new identity
        assert cache.stats.recycled == 1
        assert cache.allocated == 1

    def test_stale_ref_revalidate_finds_new_object(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        for _ in range(WINDOW_COUNT):
            cache.tick()
        cache.run_background_removal()
        cache.lookup("/store/a", now=100.0)  # re-created
        live = cache.revalidate(ref)
        assert live is not None and live.valid
        assert live.key == "/store/a"

    def test_revalidate_total_miss(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        for _ in range(WINDOW_COUNT):
            cache.tick()
        cache.run_background_removal()
        assert cache.revalidate(ref) is None

    def test_background_removal_limit(self):
        cache = cluster_cache()
        for i in range(10):
            cache.lookup(f"/store/f{i}", now=0.0)
        for _ in range(WINDOW_COUNT):
            cache.tick()
        assert cache.run_background_removal(limit=3) == 3
        assert cache.pending_removals == 7
        assert cache.run_background_removal() == 7

    def test_double_queueing_is_safe_after_recycle(self):
        """invalidate + window sweep may queue an object twice; once its
        storage is recycled the stale entry must not remove the new file."""
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        cache.invalidate(ref)  # queued once
        for _ in range(WINDOW_COUNT):
            cache.tick()  # queued again by the sweep
        assert cache.run_background_removal(limit=1) == 1
        ref_b, _ = cache.lookup("/store/b", now=100.0)  # recycles storage
        cache.run_background_removal()
        live, is_new = cache.lookup("/store/b", now=101.0)
        assert not is_new  # /store/b must have survived
        cache.check_invariants()


class TestInvalidate:
    def test_invalidate_hides_immediately(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        assert cache.invalidate(ref)
        r, is_new = cache.lookup("/store/a", now=0.1, add=False)
        assert r is None

    def test_invalidate_stale_ref(self):
        cache = cluster_cache()
        ref, _ = cache.lookup("/store/a", now=0.0)
        cache.invalidate(ref)
        assert not cache.invalidate(ref)


class TestStats:
    def test_snapshot_keys(self):
        cache = cluster_cache()
        snap = cache.stats.snapshot()
        assert "lookups" in snap and "vwc_hits" in snap

    def test_tick_interval(self):
        cache = NameCache(lifetime=8 * 3600.0)
        assert cache.tick_interval == pytest.approx(450.0)  # 7.5 minutes

    def test_live_count(self):
        cache = cluster_cache()
        for i in range(5):
            cache.lookup(f"/store/f{i}", now=0.0)
        assert cache.live_count() == 5


class TestFootprint:
    #: Traced bytes per cached name, key strings excluded.  Location
    #: objects chained through their own ``next`` link measure about 256 B;
    #: a Python list per hash bucket measured about 356 B.
    BUDGET_PER_NAME = 300

    def test_bytes_per_cached_name(self):
        n = 50_000
        # Built before tracing starts: the key strings are not counted.
        names = [f"/store/mc/run{i % 97:03d}/f{i:06d}.root" for i in range(n)]
        m = ClusterMembership()
        for i in range(64):
            m.login(f"srv{i:02d}", ["/store"])
        gc.collect()
        tracemalloc.start()
        try:
            cache = NameCache(m)
            for name in names:
                cache.lookup(name, now=0.0)
            used, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache.live_count() == n
        assert used / n < self.BUDGET_PER_NAME, f"{used / n:.0f} B per name"
