"""Unit tests for cache references (``CacheRef``) and their authenticators."""

import pytest

from repro.core.crc32 import hash_name
from repro.core.location import LocationObject
from repro.core.refs import CacheRef, StaleReference


def ref_to(key="/store/a"):
    obj = LocationObject(key, hash_name(key))
    return CacheRef(obj, obj.generation, key, obj.hash_val)


class TestImmutability:
    @pytest.mark.parametrize("field", ["obj", "generation", "key", "hash_val"])
    def test_assigning_a_field_raises(self, field):
        ref = ref_to()
        with pytest.raises(AttributeError):
            setattr(ref, field, None)

    def test_no_new_attributes(self):
        ref = ref_to()
        with pytest.raises(AttributeError):
            ref.extra = 1

    def test_fields_by_name_and_keyword(self):
        obj = LocationObject("/a", 7)
        ref = CacheRef(obj=obj, generation=1, key="/a", hash_val=7)
        assert (ref.obj, ref.generation, ref.key, ref.hash_val) == (obj, 1, "/a", 7)


class TestAuthenticator:
    def test_valid_until_hidden(self):
        ref = ref_to()
        assert ref.valid
        assert ref.get() is ref.obj
        ref.obj.hide()
        assert not ref.valid

    def test_stale_get_raises_with_key(self):
        ref = ref_to("/store/gone")
        ref.obj.hide()
        with pytest.raises(StaleReference) as exc_info:
            ref.get()
        assert exc_info.value.key == "/store/gone"
        assert "/store/gone" in str(exc_info.value)

    def test_recycled_storage_stays_stale(self):
        ref = ref_to("/store/a")
        obj = ref.obj
        obj.hide()
        obj.assign("/store/b", hash_name("/store/b"), c_n=0, t_a=0)
        assert not ref.valid
        with pytest.raises(StaleReference):
            ref.get()


class TestValueSemantics:
    def test_equal_by_value(self):
        obj = LocationObject("/a", 1)
        assert CacheRef(obj, 1, "/a", 1) == CacheRef(obj, 1, "/a", 1)
        assert hash(CacheRef(obj, 1, "/a", 1)) == hash(CacheRef(obj, 1, "/a", 1))

    def test_generation_distinguishes(self):
        obj = LocationObject("/a", 1)
        assert CacheRef(obj, 1, "/a", 1) != CacheRef(obj, 2, "/a", 1)

    def test_object_compared_by_identity(self):
        a, b = LocationObject("/a", 1), LocationObject("/a", 1)
        assert CacheRef(a, 1, "/a", 1) != CacheRef(b, 1, "/a", 1)

    def test_usable_as_set_member(self):
        obj = LocationObject("/a", 1)
        refs = {CacheRef(obj, 1, "/a", 1), CacheRef(obj, 1, "/a", 1)}
        assert len(refs) == 1
