"""Unit tests for the 1024-anchor fast response queue."""

import pytest

from repro.core.crc32 import hash_name
from repro.core.location import NO_QUEUE, LocationObject
from repro.core.response_queue import AccessMode, ResponseQueue


def make_loc(key="/store/f.root"):
    obj = LocationObject()
    obj.assign(key, hash_name(key), c_n=0, t_a=0)
    return obj


class TestAddWaiter:
    def test_first_add_reports_queue_was_empty(self):
        q = ResponseQueue()
        loc = make_loc()
        out = q.add_waiter(loc, AccessMode.READ, "client-1", now=0.0)
        assert out.accepted and out.queue_was_empty

    def test_second_add_does_not_rewake(self):
        q = ResponseQueue()
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c1", now=0.0)
        out = q.add_waiter(loc, AccessMode.READ, "c2", now=0.001)
        assert out.accepted and not out.queue_was_empty

    def test_same_loc_same_mode_shares_anchor(self):
        q = ResponseQueue()
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c1", now=0.0)
        q.add_waiter(loc, AccessMode.READ, "c2", now=0.0)
        assert q.active_anchors == 1
        assert q.pending_waiters() == 2

    def test_read_and_write_use_separate_anchors(self):
        q = ResponseQueue()
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "r", now=0.0)
        q.add_waiter(loc, AccessMode.WRITE, "w", now=0.0)
        assert q.active_anchors == 2
        assert loc.rq_read != NO_QUEUE and loc.rq_write != NO_QUEUE
        assert loc.rq_read != loc.rq_write

    def test_exhaustion_rejected(self):
        q = ResponseQueue(anchors=2)
        locs = [make_loc(f"/f{i}") for i in range(3)]
        assert q.add_waiter(locs[0], AccessMode.READ, "a", 0.0).accepted
        assert q.add_waiter(locs[1], AccessMode.READ, "b", 0.0).accepted
        out = q.add_waiter(locs[2], AccessMode.READ, "c", 0.0)
        assert not out.accepted
        assert q.rejected == 1

    def test_zero_anchors_invalid(self):
        with pytest.raises(ValueError):
            ResponseQueue(anchors=0)


class TestResponses:
    def test_response_releases_readers_with_server(self):
        q = ResponseQueue()
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c1", now=0.0)
        q.add_waiter(loc, AccessMode.READ, "c2", now=0.0)
        released = q.on_response(loc, server=7, write_capable=False)
        assert {w.payload for w in released} == {"c1", "c2"}
        assert all(w.server == 7 for w in released)
        assert loc.rq_read == NO_QUEUE
        assert q.active_anchors == 0

    def test_read_only_response_leaves_writers_waiting(self):
        q = ResponseQueue()
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "r", now=0.0)
        q.add_waiter(loc, AccessMode.WRITE, "w", now=0.0)
        released = q.on_response(loc, server=3, write_capable=False)
        assert [w.payload for w in released] == ["r"]
        assert q.pending_waiters() == 1

    def test_write_capable_response_releases_both(self):
        q = ResponseQueue()
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "r", now=0.0)
        q.add_waiter(loc, AccessMode.WRITE, "w", now=0.0)
        released = q.on_response(loc, server=3, write_capable=True)
        assert {w.payload for w in released} == {"r", "w"}

    def test_response_with_no_waiters_is_empty(self):
        q = ResponseQueue()
        assert q.on_response(make_loc(), server=1, write_capable=True) == []

    def test_anchor_recycled_after_response(self):
        q = ResponseQueue(anchors=1)
        loc1, loc2 = make_loc("/a"), make_loc("/b")
        q.add_waiter(loc1, AccessMode.READ, "c", now=0.0)
        q.on_response(loc1, server=0, write_capable=False)
        assert q.add_waiter(loc2, AccessMode.READ, "d", now=0.0).accepted


class TestLooseCoupling:
    def test_stale_association_detected_after_generation_bump(self):
        """If the location object is recycled, its stored queue index must
        not resolve — the anchor belongs to the *old* object."""
        q = ResponseQueue()
        loc = make_loc("/a")
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        idx = loc.rq_read
        loc.hide()  # generation bump, as removal would do
        # The association check must fail, so a response releases nothing.
        assert q.on_response(loc, server=1, write_capable=True) == []
        # And a new waiter gets a fresh anchor rather than joining idx.
        loc.assign("/b", hash_name("/b"), c_n=0, t_a=0)
        q.add_waiter(loc, AccessMode.READ, "d", now=0.0)
        assert q.pending_waiters() >= 1

    def test_anchor_reuse_invalidates_old_reference(self):
        q = ResponseQueue(anchors=1)
        loc1, loc2 = make_loc("/a"), make_loc("/b")
        q.add_waiter(loc1, AccessMode.READ, "c1", now=0.0)
        q.expire(now=10.0)  # anchor reclaimed, stamp bumped
        q.add_waiter(loc2, AccessMode.READ, "c2", now=10.0)
        # loc1 still holds the old index; it must not hijack loc2's anchor.
        assert q.on_response(loc1, server=5, write_capable=True) == []
        released = q.on_response(loc2, server=5, write_capable=True)
        assert [w.payload for w in released] == ["c2"]


class TestExpiry:
    def test_expire_before_period_is_noop(self):
        q = ResponseQueue(period=0.133)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        assert q.expire(now=0.1) == []
        assert q.pending_waiters() == 1

    def test_expire_after_period_times_out(self):
        q = ResponseQueue(period=0.133)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        expired = q.expire(now=0.14)
        assert [w.payload for w in expired] == ["c"]
        assert all(w.server == -1 for w in expired)
        assert loc.rq_read == NO_QUEUE
        assert q.timeouts == 1

    def test_expiry_is_fifo_partial(self):
        q = ResponseQueue(period=0.133)
        early, late = make_loc("/a"), make_loc("/b")
        q.add_waiter(early, AccessMode.READ, "early", now=0.0)
        q.add_waiter(late, AccessMode.READ, "late", now=0.1)
        expired = q.expire(now=0.15)
        assert [w.payload for w in expired] == ["early"]
        assert q.pending_waiters() == 1

    def test_responded_anchor_not_expired(self):
        q = ResponseQueue(period=0.133)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        q.on_response(loc, server=2, write_capable=False)
        assert q.expire(now=1.0) == []

    def test_next_expiry(self):
        q = ResponseQueue(period=0.133)
        assert q.next_expiry() is None
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=1.0)
        assert q.next_expiry() == pytest.approx(1.133)
        q.on_response(loc, server=0, write_capable=False)
        assert q.next_expiry() is None

    def test_fast_response_beats_timeout_stats(self):
        q = ResponseQueue(period=0.133)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        q.on_response(loc, server=0, write_capable=False)
        assert q.fast_responses == 1 and q.timeouts == 0


class TestPerAnchorWindows:
    def test_explicit_window_overrides_period(self):
        q = ResponseQueue(period=0.133)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0, window=0.5)
        assert q.next_expiry() == pytest.approx(0.5)
        assert q.expire(now=0.2) == []
        assert [w.payload for w in q.expire(now=0.51)] == ["c"]

    def test_join_keeps_the_running_window(self):
        q = ResponseQueue(period=0.133)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c1", now=0.0, window=0.5)
        q.add_waiter(loc, AccessMode.READ, "c2", now=0.3, window=9.0)
        # The joiner's window is ignored: the anchor's clock already runs.
        assert q.next_expiry() == pytest.approx(0.5)
        assert len(q.expire(now=0.51)) == 2

    def test_mixed_windows_expire_out_of_fifo_order(self):
        q = ResponseQueue(period=0.133)
        long_w, short_w = make_loc("/a"), make_loc("/b")
        q.add_waiter(long_w, AccessMode.READ, "long", now=0.0, window=1.0)
        q.add_waiter(short_w, AccessMode.READ, "short", now=0.1)
        assert [w.payload for w in q.expire(now=0.3)] == ["short"]
        assert [w.payload for w in q.expire(now=1.1)] == ["long"]

    def test_has_anchor(self):
        q = ResponseQueue(period=0.133)
        loc = make_loc()
        assert not q.has_anchor(loc, AccessMode.READ)
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        assert q.has_anchor(loc, AccessMode.READ)
        assert not q.has_anchor(loc, AccessMode.WRITE)
        q.expire(now=1.0)
        assert not q.has_anchor(loc, AccessMode.READ)


class TestLateResponses:
    def test_late_response_releases_parked_waiters(self):
        q = ResponseQueue(period=0.133, park_ttl=5.0)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        q.expire(now=0.14)
        assert q.parked_waiters() == 1
        released = q.on_late_response(loc, server=4, write_capable=False, now=0.16)
        assert [w.payload for w in released] == ["c"]
        assert released[0].server == 4
        assert q.parked_waiters() == 0
        assert q.late_responses == 1

    def test_park_ttl_zero_disables_parking(self):
        q = ResponseQueue(period=0.133, park_ttl=0.0)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        q.expire(now=0.14)
        assert q.parked_waiters() == 0
        assert q.on_late_response(loc, server=4, write_capable=True, now=0.16) == []

    def test_late_release_survives_anchor_stamp_reuse(self):
        """Parking is keyed by location key+generation, not by anchor: the
        expired anchor being reclaimed and reused for another file must not
        misroute (or block) the late answer."""
        q = ResponseQueue(anchors=1, period=0.133, park_ttl=5.0)
        loc, other = make_loc("/a"), make_loc("/b")
        q.add_waiter(loc, AccessMode.READ, "slow", now=0.0)
        q.expire(now=0.14)
        # The single anchor is immediately reused (stamp bumped) by /b.
        assert q.add_waiter(other, AccessMode.READ, "fresh", now=0.15).accepted
        released = q.on_late_response(loc, server=2, write_capable=True, now=0.2)
        assert [w.payload for w in released] == ["slow"]
        # /b's live anchor is untouched by /a's late answer.
        assert q.pending_waiters() == 1

    def test_read_only_late_response_keeps_parked_writers(self):
        q = ResponseQueue(period=0.133, park_ttl=5.0)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "r", now=0.0)
        q.add_waiter(loc, AccessMode.WRITE, "w", now=0.0)
        q.expire(now=0.14)
        released = q.on_late_response(loc, server=1, write_capable=False, now=0.2)
        assert [w.payload for w in released] == ["r"]
        assert q.parked_waiters() == 1
        # A later write-capable answer picks up the parked writer.
        released = q.on_late_response(loc, server=2, write_capable=True, now=0.3)
        assert [w.payload for w in released] == ["w"]
        assert q.parked_waiters() == 0

    def test_duplicate_late_responses_release_once(self):
        q = ResponseQueue(period=0.133, park_ttl=5.0)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        q.expire(now=0.14)
        assert len(q.on_late_response(loc, server=1, write_capable=True, now=0.2)) == 1
        assert q.on_late_response(loc, server=2, write_capable=True, now=0.21) == []
        assert q.late_responses == 1

    def test_parked_waiters_purged_after_ttl(self):
        q = ResponseQueue(period=0.133, park_ttl=1.0)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        q.expire(now=0.14)
        assert q.parked_waiters() == 1
        q.expire(now=2.0)  # purge rides the expiry sweep
        assert q.parked_waiters() == 0
        # Past the TTL the client has retried: nothing to release.
        assert q.on_late_response(loc, server=1, write_capable=True, now=2.1) == []

    def test_generation_bump_orphans_parked_entry(self):
        q = ResponseQueue(period=0.133, park_ttl=5.0)
        loc = make_loc("/a")
        q.add_waiter(loc, AccessMode.READ, "c", now=0.0)
        q.expire(now=0.14)
        loc.hide()  # recycled: any late answer now concerns a dead epoch
        assert q.on_late_response(loc, server=1, write_capable=True, now=0.2) == []

    def test_unpark_withdraws_one_waiter(self):
        q = ResponseQueue(period=0.133, park_ttl=5.0)
        loc = make_loc()
        q.add_waiter(loc, AccessMode.READ, "c1", now=0.0)
        q.add_waiter(loc, AccessMode.READ, "c2", now=0.0)
        parked = q.expire(now=0.14)
        assert q.unpark(loc, parked[0])
        assert not q.unpark(loc, parked[0])  # already gone
        released = q.on_late_response(loc, server=1, write_capable=True, now=0.2)
        assert [w.payload for w in released] == ["c2"]


class TestAnchorsOnDemand:
    """Anchor objects are built the first time their slot is taken; the
    free stack, and so the order slots are handed out, is unchanged."""

    def test_idle_queue_builds_no_anchor(self):
        q = ResponseQueue()
        assert q._anchors == [None] * 1024
        assert len(q._free) == 1024

    def test_first_use_keeps_index_order(self):
        q = ResponseQueue(anchors=4)
        locs = [make_loc(f"/store/f{i}") for i in range(3)]
        for loc in locs:
            q.add_waiter(loc, AccessMode.READ, loc.key, now=0.0)
        assert [loc.rq_read for loc in locs] == [0, 1, 2]
        assert [a.index for a in q._anchors[:3]] == [0, 1, 2]
        assert q._anchors[3] is None
        # A released slot goes back on top of the stack and is reused
        # before the never-built one.
        q.on_response(locs[1], server=0, write_capable=False)
        anchor1 = q._anchors[1]
        again = make_loc("/store/again")
        q.add_waiter(again, AccessMode.READ, "again", now=0.0)
        assert again.rq_read == 1
        assert q._anchors[1] is anchor1
        assert q._anchors[3] is None
        assert q.pending_waiters() == 3

    def test_1025th_distinct_anchor_is_rejected(self):
        q = ResponseQueue()
        for i in range(1024):
            out = q.add_waiter(make_loc(f"/store/f{i}"), AccessMode.READ, i, now=0.0)
            assert out.accepted
        assert None not in q._anchors
        out = q.add_waiter(make_loc("/store/one-too-many"), AccessMode.READ, "x", now=0.0)
        assert not out.accepted
        assert q.rejected == 1
        assert q.active_anchors == 1024
