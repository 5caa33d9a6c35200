"""Unit tests for location objects."""

import pytest

from repro.core import bitvec
from repro.core.crc32 import hash_name
from repro.core.location import NO_QUEUE, LocationObject


def make(key="/store/f.root"):
    obj = LocationObject()
    obj.assign(key, hash_name(key), c_n=0, t_a=0)
    return obj


class TestAssign:
    def test_fresh_object_fields(self):
        obj = make()
        assert obj.key == "/store/f.root"
        assert obj.key_len == len(obj.key)
        assert obj.v_h == obj.v_p == obj.v_q == 0
        assert obj.rq_read == NO_QUEUE and obj.rq_write == NO_QUEUE
        assert not obj.hidden

    def test_assign_bumps_generation(self):
        obj = make()
        g = obj.generation
        obj.assign("/other", hash_name("/other"), c_n=3, t_a=5)
        assert obj.generation == g + 1
        assert obj.c_n == 3 and obj.t_a == 5

    def test_reuse_clears_queue_associations(self):
        obj = make()
        obj.rq_read = 7
        obj.rq_write = 9
        obj.assign("/new", hash_name("/new"), c_n=0, t_a=1)
        assert obj.rq_read == NO_QUEUE and obj.rq_write == NO_QUEUE

    def test_constructor_matches_assign_on_empty_storage(self):
        built = LocationObject("/store/f.root", hash_name("/store/f.root"), c_n=4, t_a=9)
        assigned = LocationObject()
        assigned.assign("/store/f.root", hash_name("/store/f.root"), c_n=4, t_a=9)
        for field in LocationObject.__slots__:
            assert getattr(built, field) == getattr(assigned, field), field
        assert built.generation == 1
        assert built.next is None and built.chain_window == -1

    def test_empty_storage_is_hidden_generation_zero(self):
        obj = LocationObject()
        assert obj.hidden and obj.generation == 0


class TestHide:
    def test_hide_sets_keylen_zero_keeps_key(self):
        obj = make()
        obj.hide()
        assert obj.hidden
        assert obj.key == "/store/f.root"  # text survives, per the paper
        assert obj.key_len == 0

    def test_hide_bumps_generation(self):
        obj = make()
        g = obj.generation
        obj.hide()
        assert obj.generation == g + 1

    def test_hidden_object_never_matches(self):
        obj = make()
        obj.hide()
        assert not obj.matches(obj.key, obj.hash_val)


class TestMatches:
    def test_match_requires_same_hash(self):
        obj = make()
        assert not obj.matches(obj.key, obj.hash_val ^ 1)

    def test_match_requires_same_key(self):
        obj = make("/a")
        other = "/b"
        assert not obj.matches(other, hash_name(other))

    def test_hash_collision_disambiguated_by_key(self):
        obj = make("/a")
        # Same hash forced artificially: key comparison must reject.
        assert not obj.matches("/zz", obj.hash_val)

    def test_positive_match(self):
        obj = make()
        assert obj.matches(obj.key, obj.hash_val)


class TestVectors:
    def test_set_holder_online(self):
        obj = make()
        obj.v_q = bitvec.from_indices([3, 4])
        obj.set_holder(3)
        assert bitvec.has(obj.v_h, 3)
        assert not bitvec.has(obj.v_q, 3)
        assert bitvec.has(obj.v_q, 4)
        obj.check_invariants()

    def test_set_holder_pending(self):
        obj = make()
        obj.v_q = bitvec.bit(9)
        obj.set_holder(9, pending=True)
        assert bitvec.has(obj.v_p, 9)
        assert obj.v_h == 0 and obj.v_q == 0
        obj.check_invariants()

    def test_pending_promotes_to_online(self):
        obj = make()
        obj.set_holder(5, pending=True)
        obj.set_holder(5)
        assert bitvec.has(obj.v_h, 5)
        assert not bitvec.has(obj.v_p, 5)

    def test_clear_server_scrubs_everywhere(self):
        obj = make()
        obj.v_h = bitvec.bit(1)
        obj.v_p = bitvec.bit(2)
        obj.v_q = bitvec.bit(1) | bitvec.bit(2)  # deliberately broken overlap
        for s in (1, 2):
            obj.clear_server(s)
        assert obj.v_h == obj.v_p == obj.v_q == 0

    def test_known_empty(self):
        obj = make()
        assert obj.known_empty
        obj.v_q = 1
        assert not obj.known_empty


class TestInvariants:
    def test_overlap_detected(self):
        obj = make()
        obj.v_h = bitvec.bit(1)
        obj.v_q = bitvec.bit(1)
        with pytest.raises(AssertionError):
            obj.check_invariants()

    def test_bad_window_detected(self):
        obj = make()
        obj.t_a = 64
        with pytest.raises(AssertionError):
            obj.check_invariants()
