"""Unit tests for the Fibonacci-sized location table."""

import pytest

from repro.analysis.violations import TableStructureViolation
from repro.core.crc32 import hash_name
from repro.core.fibonacci import is_fibonacci
from repro.core.hashtable import LocationTable
from repro.core.location import LocationObject


def make(key):
    obj = LocationObject()
    obj.assign(key, hash_name(key), c_n=0, t_a=0)
    return obj


class TestBasicOperations:
    def test_insert_find(self):
        t = LocationTable()
        obj = make("/a")
        t.insert(obj)
        assert t.find("/a", obj.hash_val) is obj

    def test_find_missing(self):
        t = LocationTable()
        assert t.find("/nope", hash_name("/nope")) is None

    def test_find_skips_hidden(self):
        t = LocationTable()
        obj = make("/a")
        t.insert(obj)
        obj.hide()
        assert t.find("/a", obj.hash_val) is None
        assert t.count == 1  # still physically chained

    def test_remove_by_identity(self):
        t = LocationTable()
        a, b = make("/a"), make("/b")
        t.insert(a)
        t.insert(b)
        assert t.remove(a)
        assert not t.remove(a)  # second removal is a no-op
        assert t.count == 1
        assert t.find("/b", b.hash_val) is b

    def test_initial_size_must_be_fibonacci(self):
        with pytest.raises(ValueError):
            # The non-Fibonacci size is the point of this test.
            LocationTable(initial_size=100)  # scalla-lint: disable=SCA002

    def test_iteration_covers_hidden(self):
        t = LocationTable()
        a, b = make("/a"), make("/b")
        t.insert(a)
        t.insert(b)
        a.hide()
        assert {o.key for o in t} == {"/a", "/b"}
        assert {o.key for o in t.visible()} == {"/b"}


class TestGrowth:
    def test_grows_at_eighty_percent(self):
        t = LocationTable(initial_size=89)
        # 80% of 89 = 71.2, so the 72nd insert must trigger growth.
        for i in range(71):
            t.insert(make(f"/f{i}"))
        assert t.size == 89
        t.insert(make("/f71"))
        assert t.size == 144
        assert t.resizes == 1

    def test_growth_preserves_entries(self):
        t = LocationTable(initial_size=89)
        objs = [make(f"/store/file-{i}.root") for i in range(500)]
        for o in objs:
            t.insert(o)
        assert t.count == 500
        for o in objs:
            assert t.find(o.key, o.hash_val) is o
        assert t.resizes >= 3

    def test_sizes_stay_fibonacci(self):
        t = LocationTable(initial_size=89)
        for i in range(2000):
            t.insert(make(f"/f{i}"))
            assert is_fibonacci(t.size)

    def test_resize_rate_decays(self):
        """Geometric growth: second thousand inserts resize fewer times
        than the first thousand."""
        t = LocationTable(initial_size=89)
        for i in range(1000):
            t.insert(make(f"/a{i}"))
        first = t.resizes
        for i in range(1000):
            t.insert(make(f"/b{i}"))
        assert t.resizes - first <= first

    def test_hidden_entries_count_toward_growth(self):
        t = LocationTable(initial_size=89)
        for i in range(71):
            obj = make(f"/f{i}")
            t.insert(obj)
            obj.hide()
        t.insert(make("/trigger"))
        assert t.size == 144


class TestStatistics:
    def test_probe_accounting(self):
        t = LocationTable()
        obj = make("/a")
        t.insert(obj)
        t.find("/a", obj.hash_val)
        assert t.lookups == 1
        assert t.probes >= 1
        assert t.mean_probe_length() >= 1.0

    def test_chain_lengths_sum_to_count(self):
        t = LocationTable(initial_size=89)
        for i in range(300):
            t.insert(make(f"/f{i}"))
        assert sum(t.chain_lengths()) == 300

    def test_mean_probe_without_lookups(self):
        assert LocationTable().mean_probe_length() == 0.0


class TestInvariants:
    def test_check_invariants_clean(self):
        t = LocationTable(initial_size=89)
        for i in range(200):
            t.insert(make(f"/f{i}"))
        t.check_invariants()

    def test_detects_misplaced_object(self):
        t = LocationTable()
        obj = make("/a")
        t.insert(obj)
        obj.hash_val += 1  # corrupt
        with pytest.raises(AssertionError):
            t.check_invariants()

    def test_cyclic_chain_reported_not_walked_forever(self):
        # Inserting a chained object again links it to itself.
        t = LocationTable()
        obj = make("/a")
        t.insert(obj)
        t.insert(obj)
        with pytest.raises(TableStructureViolation) as exc_info:
            t.check_invariants()
        assert exc_info.value.invariant == "count-sync"
