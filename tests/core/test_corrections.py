"""Unit tests for cluster membership and the Figure-3 corrections."""

import pytest

from repro.core import bitvec
from repro.core.corrections import ClusterMembership, apply_corrections
from repro.core.crc32 import hash_name
from repro.core.location import LocationObject


def make_loc(key="/store/f.root", c_n=0):
    obj = LocationObject()
    obj.assign(key, hash_name(key), c_n=c_n, t_a=0)
    return obj


class TestLogin:
    def test_first_login_gets_slot_zero(self):
        m = ClusterMembership()
        assert m.login("srv-a", ["/store"]) == 0
        assert m.member_count() == 1
        assert m.v_online == bitvec.bit(0)

    def test_logins_fill_ascending_slots(self):
        m = ClusterMembership()
        slots = [m.login(f"srv-{i}", ["/store"]) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]

    def test_explicit_slot(self):
        m = ClusterMembership()
        assert m.login("srv-a", ["/store"], slot=17) == 17
        assert m.slot_of("srv-a") == 17

    def test_explicit_slot_conflict(self):
        m = ClusterMembership()
        m.login("srv-a", ["/store"], slot=3)
        with pytest.raises(ValueError):
            m.login("srv-b", ["/store"], slot=3)

    def test_empty_paths_rejected(self):
        m = ClusterMembership()
        with pytest.raises(ValueError):
            m.login("srv-a", [])

    def test_65th_server_rejected(self):
        m = ClusterMembership()
        for i in range(64):
            m.login(f"srv-{i}", ["/store"])
        with pytest.raises(OverflowError):
            m.login("srv-64", ["/store"])

    def test_login_bumps_counters(self):
        m = ClusterMembership()
        s = m.login("srv-a", ["/store"])
        assert m.n_c == 1
        assert m.c[s] == 1
        m.login("srv-b", ["/store"])
        assert m.n_c == 2


class TestEligibility:
    def test_prefix_match(self):
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        b = m.login("srv-b", ["/atlas"])
        assert m.eligible("/store/run1/f.root") == bitvec.bit(a)
        assert m.eligible("/atlas/x") == bitvec.bit(b)
        assert m.eligible("/cms/x") == 0

    def test_overlapping_prefixes_union(self):
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        b = m.login("srv-b", ["/store/rare"])
        assert m.eligible("/store/rare/f") == bitvec.bit(a) | bitvec.bit(b)
        assert m.eligible("/store/common/f") == bitvec.bit(a)

    def test_shared_prefix_multiple_exporters(self):
        m = ClusterMembership()
        slots = [m.login(f"srv-{i}", ["/store"]) for i in range(3)]
        assert m.eligible("/store/f") == bitvec.from_indices(slots)


class TestDisconnectDropReconnect:
    def test_disconnect_keeps_membership(self):
        """Case 1: offline but still a member; V_m untouched."""
        m = ClusterMembership()
        s = m.login("srv-a", ["/store"])
        m.disconnect("srv-a")
        assert m.v_online == 0
        assert m.v_offline == bitvec.bit(s)
        assert m.eligible("/store/f") == bitvec.bit(s)

    def test_drop_scrubs_vm_and_frees_slot(self):
        """Case 2: dropped server leaves every V_m; slot reusable."""
        m = ClusterMembership()
        s = m.login("srv-a", ["/store"])
        m.drop("srv-a")
        assert m.eligible("/store/f") == 0
        assert m.member_count() == 0
        assert m.login("srv-b", ["/store"]) == s  # slot reused

    def test_undropped_reconnect_same_paths_keeps_slot(self):
        """Case 3: reconnect before drop; same slot, counts as connection."""
        m = ClusterMembership()
        s = m.login("srv-a", ["/store"])
        n_before = m.n_c
        m.disconnect("srv-a")
        assert m.login("srv-a", ["/store"]) == s
        assert m.v_online == bitvec.bit(s)
        assert m.n_c == n_before + 1  # forces re-query of interim caches

    def test_reconnect_with_new_paths_is_new_connection(self):
        m = ClusterMembership()
        s = m.login("srv-a", ["/store"])
        m.login("srv-a", ["/atlas"])
        assert m.eligible("/store/f") == 0
        assert m.eligible("/atlas/f") == bitvec.bit(m.slot_of("srv-a"))
        # Slot may be reused; either way srv-a is the only member.
        assert m.member_count() == 1

    def test_disconnect_unknown_raises(self):
        m = ClusterMembership()
        with pytest.raises(KeyError):
            m.disconnect("ghost")

    def test_drop_unoccupied_slot_raises(self):
        m = ClusterMembership()
        with pytest.raises(KeyError):
            m.drop(5)

    def test_drop_preserves_shared_path_for_others(self):
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        b = m.login("srv-b", ["/store"])
        m.drop("srv-a")
        assert m.eligible("/store/f") == bitvec.bit(b)


class TestLiveness:
    """The §III-A4 liveness policy, driven with explicit clock values."""

    DISCONNECT, DROP = 3.5, 600.0

    def _member(self, now=0.0):
        m = ClusterMembership()
        s = m.login("srv-a", ["/store"], host="srv-a.cmsd", role="supervisor", now=now)
        return m, s

    def test_login_writes_the_record(self):
        m, s = self._member(now=2.0)
        assert m.heartbeat("srv-a", 3.0, "east") == s
        m.login("srv-a", ["/store"], host="srv-a.cmsd", role="supervisor", now=4.0)
        record = m.slots[s]
        assert (record.host, record.role, record.last_seen) == ("srv-a.cmsd", "supervisor", 4.0)
        assert record.site == ""  # unknown again until the next heartbeat

    def test_silent_past_disconnect_horizon_goes_offline(self):
        m, s = self._member()
        m.expire(self.DISCONNECT, self.DISCONNECT, self.DROP)
        assert m.v_online == bitvec.bit(s)  # not past the horizon yet
        m.expire(self.DISCONNECT + 0.1, self.DISCONNECT, self.DROP)
        assert m.v_offline == bitvec.bit(s)
        assert m.slot_of("srv-a") == s
        assert not m.slots[s].online
        assert m.eligible("/store/f") == bitvec.bit(s)  # V_m kept
        assert m.disconnects == 1
        m.expire(self.DISCONNECT + 0.2, self.DISCONNECT, self.DROP)
        assert m.disconnects == 1  # already offline

    def test_offline_past_drop_horizon_is_dropped(self):
        m, s = self._member()
        m.expire(self.DISCONNECT + 0.1, self.DISCONNECT, self.DROP)
        m.expire(self.DROP, self.DISCONNECT, self.DROP)
        assert m.member_count() == 1
        m.expire(self.DROP + 0.1, self.DISCONNECT, self.DROP)
        assert m.slot_of("srv-a") is None
        assert m.slots[s] is None
        assert m.eligible("/store/f") == 0
        assert m.drops == 1
        assert m.login("srv-b", ["/store"]) == s  # the slot is free again

    def test_heartbeat_reconnects_an_offline_member_in_its_slot(self):
        m, s = self._member()
        m.expire(self.DISCONNECT + 0.1, self.DISCONNECT, self.DROP)
        n_c = m.n_c
        assert m.heartbeat("srv-a", 10.0, "west") == s
        record = m.slots[s]
        assert record.online and m.v_online == bitvec.bit(s)
        assert m.n_c == n_c + 1 and m.c[s] == m.n_c  # cached objects re-query it
        assert (record.host, record.role) == ("srv-a.cmsd", "supervisor")
        assert (record.site, record.last_seen) == ("west", 10.0)
        m.expire(10.0 + self.DISCONNECT, self.DISCONNECT, self.DROP)
        assert record.online  # the heartbeat reset the silence clock

    def test_heartbeat_report_lives_on_the_record(self):
        m, s = self._member()
        assert m.heartbeat("srv-a", 1.0, "east", 0.9, 123.0) == s
        record = m.slots[s]
        assert (record.load, record.free_space) == (0.9, 123.0)
        record.selections = 5
        m.login("srv-a", ["/store"], now=2.0)  # the same member: its record kept
        assert m.slots[s] is record
        assert (record.load, record.free_space) == (0.9, 123.0)
        m.drop("srv-a")
        assert m.login("srv-b", ["/store"]) == s  # a new record in the freed slot
        fresh = m.slots[s]
        assert (fresh.load, fresh.free_space, fresh.selections) == (0.0, 0.0, 0)

    def test_heartbeat_from_a_stranger(self):
        m, _ = self._member()
        assert m.heartbeat("ghost", 1.0) is None


class TestConnectedSince:
    def test_vc_reflects_later_connections(self):
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        snapshot = m.n_c
        b = m.login("srv-b", ["/store"])
        c = m.login("srv-c", ["/store"])
        assert m.connected_since(snapshot) == bitvec.bit(b) | bitvec.bit(c)
        assert m.connected_since(m.n_c) == 0

    def test_vc_from_zero_is_everyone(self):
        m = ClusterMembership()
        slots = [m.login(f"srv-{i}", ["/store"]) for i in range(4)]
        assert m.connected_since(0) == bitvec.from_indices(slots)


class TestApplyCorrections:
    def test_new_server_added_to_vq_removed_from_vh(self):
        """The central Figure-3 behaviour: late connections must be queried,
        and anything claiming them as holders is reset."""
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        loc = make_loc(c_n=m.n_c)
        loc.v_h = bitvec.bit(a)
        b = m.login("srv-b", ["/store"])
        v_m = m.eligible(loc.key)
        fired = apply_corrections(loc, m, v_m)
        assert fired
        assert bitvec.has(loc.v_q, b)
        assert bitvec.has(loc.v_h, a)  # existing holder untouched
        assert not bitvec.has(loc.v_h, b)
        assert loc.c_n == m.n_c
        loc.check_invariants()

    def test_correction_idempotent(self):
        m = ClusterMembership()
        m.login("srv-a", ["/store"])
        loc = make_loc(c_n=0)
        v_m = m.eligible(loc.key)
        apply_corrections(loc, m, v_m)
        state = (loc.v_h, loc.v_p, loc.v_q, loc.c_n)
        assert not apply_corrections(loc, m, v_m)
        assert (loc.v_h, loc.v_p, loc.v_q, loc.c_n) == state

    def test_vm_mask_scrubs_dropped_server(self):
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        b = m.login("srv-b", ["/store"])
        loc = make_loc(c_n=m.n_c)
        loc.v_h = bitvec.bit(a) | bitvec.bit(b)
        m.drop("srv-a")
        apply_corrections(loc, m, m.eligible(loc.key))
        assert loc.v_h == bitvec.bit(b)

    def test_offline_holder_moves_to_vq(self):
        """§III-A4: offline servers are added to V_q by the fetch method."""
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        loc = make_loc(c_n=m.n_c)
        loc.v_h = bitvec.bit(a)
        m.disconnect("srv-a")
        apply_corrections(loc, m, m.eligible(loc.key))
        assert loc.v_h == 0
        assert loc.v_q == bitvec.bit(a)
        loc.check_invariants()

    def test_offline_pending_moves_to_vq(self):
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        loc = make_loc(c_n=m.n_c)
        loc.v_p = bitvec.bit(a)
        m.disconnect("srv-a")
        apply_corrections(loc, m, m.eligible(loc.key))
        assert loc.v_p == 0 and loc.v_q == bitvec.bit(a)

    def test_precomputed_vc_honoured(self):
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        loc = make_loc(c_n=0)
        v_m = m.eligible(loc.key)
        # Deliberately wrong memo proves the caller-supplied vector is used.
        apply_corrections(loc, m, v_m, v_c=0)
        assert loc.v_q == 0

    def test_reconnection_requeries_only_stale_caches(self):
        """Objects cached after the reconnect don't re-query (C_n == N_c)."""
        m = ClusterMembership()
        a = m.login("srv-a", ["/store"])
        m.disconnect("srv-a")
        m.login("srv-a", ["/store"])  # reconnect: N_c bumps
        fresh = make_loc("/store/fresh", c_n=m.n_c)
        fresh.v_h = bitvec.bit(a)
        assert not apply_corrections(fresh, m, m.eligible(fresh.key))
        assert fresh.v_h == bitvec.bit(a)
