"""Unit tests for protocol messages and the size model."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import protocol as pr
from repro.cluster.ids import NodeId, Role, cmsd_host, xrootd_host


class TestIds:
    def test_host_names(self):
        nid = NodeId("srv00001", Role.SERVER)
        assert nid.cmsd == "srv00001.cmsd" == cmsd_host("srv00001")
        assert nid.xrootd == "srv00001.xrootd" == xrootd_host("srv00001")

    def test_str(self):
        assert str(NodeId("mgr0", Role.MANAGER)) == "mgr0(manager)"


class TestMessages:
    def test_login_carries_prefixes_only(self):
        """The Login message must have no field capable of carrying a file
        manifest — registration cost is O(prefixes) by construction."""
        assert set(pr.Login._fields) == {"node", "role", "paths", "instance"}
        assert pr.Login._kinds == (pr.STR, pr.STR, pr.STRS, pr.SCALAR)

    def test_messages_hashable_and_frozen(self):
        q = pr.QueryFile(path="/a", hash_val=1, mode="r", serial=1)
        assert hash(q) is not None

    def test_have_file_pending_flag(self):
        h = pr.HaveFile(path="/a", hash_val=1, node="srv1", pending=True, write_capable=False)
        assert h.pending and not h.write_capable


class TestSizeModel:
    def test_size_scales_with_path_length(self):
        short = pr.QueryFile(path="/a", hash_val=1, mode="r", serial=1)
        long = pr.QueryFile(path="/a" * 100, hash_val=1, mode="r", serial=1)
        assert pr.estimate_size(long) > pr.estimate_size(short)

    def test_size_scales_with_payload(self):
        small = pr.ReadAck(req_id=1, data=b"x")
        big = pr.ReadAck(req_id=1, data=b"x" * 10_000)
        assert pr.estimate_size(big) - pr.estimate_size(small) == 9_999

    def test_login_size_scales_with_prefix_count_not_file_count(self):
        one = pr.Login(node="s", role="server", paths=("/store",))
        many = pr.Login(node="s", role="server", paths=tuple(f"/p{i}" for i in range(10)))
        assert pr.estimate_size(many) > pr.estimate_size(one)
        # But even many prefixes stay tiny — order hundreds of bytes.
        assert pr.estimate_size(many) < 500

    def test_base_overhead_present(self):
        assert pr.estimate_size(pr.CloseAck(req_id=1)) >= 24


MESSAGES = [getattr(pr, name) for name in pr.__all__ if name != "estimate_size"]


def generic_size(msg) -> int:
    """The size model as a walk over field values: the oracle the
    generated per-type sizes must match."""
    size = 24
    for value in (getattr(msg, name) for name in msg._fields):
        if isinstance(value, str):
            size += len(value.encode("utf-8"))
        elif isinstance(value, bytes):
            size += len(value)
        elif isinstance(value, tuple):
            size += sum(len(str(v).encode("utf-8")) for v in value)
        else:
            size += 8
    return size


_VALUES = {
    pr.STR: st.text(),
    pr.BYTES: st.binary(),
    pr.STRS: st.lists(st.text(), max_size=5).map(tuple),
    pr.SCALAR: st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans()),
}


def _fields_of(cls):
    return st.fixed_dictionaries(
        {name: _VALUES[kind] for name, kind in zip(cls._fields, cls._kinds)}
    )


messages = st.sampled_from(MESSAGES).flatmap(
    lambda cls: _fields_of(cls).map(lambda kw: cls(**kw))
)


class TestGeneratedClasses:
    def test_every_message_class_is_exported(self):
        declared = {
            v for v in vars(pr).values()
            if isinstance(v, type) and issubclass(v, pr.Message) and v is not pr.Message
        }
        assert declared == set(MESSAGES)

    @settings(max_examples=300, deadline=None)
    @given(messages)
    def test_generated_size_matches_the_generic_walk(self, msg):
        assert msg.wire_size() == pr.estimate_size(msg) == generic_size(msg)

    @pytest.mark.parametrize(
        "msg",
        [
            pr.Locate(1, "client7", "/store/ünïcode/ファイル", "r", avoid=("srv1", "sérv2")),
            pr.ReadAck(3, b"\x00\xff" * 50),
            pr.Login(node="srv00001", role="server", paths=("/store", "/données")),
            pr.ListAck(9, ()),
        ],
    )
    def test_size_of_non_ascii_bytes_and_str_tuples(self, msg):
        assert pr.estimate_size(msg) == generic_size(msg)

    def test_e11_login_is_52_bytes(self):
        login = pr.Login(node="srv00001", role="server", paths=("/store",))
        assert pr.estimate_size(login) == 52

    @settings(max_examples=100, deadline=None)
    @given(messages)
    def test_repr_has_the_dataclass_form(self, msg):
        cls = type(msg)
        twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
        assert repr(msg) == repr(twin(*msg))

    def test_repr_shows_defaults(self):
        assert repr(pr.Wait(1, "/a", 5.0)) == "Wait(req_id=1, path='/a', delay=5.0, watch=False)"

    @pytest.mark.parametrize("cls", MESSAGES, ids=lambda cls: cls.__name__)
    def test_immutable_and_hashable(self, cls):
        msg = cls(*(_example(kind) for kind in cls._kinds))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(msg, name, getattr(msg, name))
        with pytest.raises(AttributeError):
            msg.extra = 1
        twin = cls(*msg)
        assert twin == msg and not (twin != msg)
        assert hash(twin) == hash(msg)
        assert len({msg, twin}) == 1

    def test_equal_only_within_one_type(self):
        assert pr.CloseAck(1) != (1,)
        assert (1,) != pr.CloseAck(1)
        assert not pr.CloseAck(1) == (1,)
        assert pr.CloseAck(1) != pr.LoginAck(1)
        assert len({pr.CloseAck(1), pr.LoginAck(1)}) == 2
        assert pr.CloseAck(1) != pr.CloseAck(2)
        assert pr.NotFound(1, "/a") == pr.NotFound(req_id=1, path="/a")

    def test_messages_have_no_order(self):
        with pytest.raises(TypeError):
            pr.CloseAck(1) < pr.CloseAck(2)

    def test_keywords_and_defaults_as_in_a_dataclass(self):
        msg = pr.QueryFile(path="/a", hash_val=1, mode="r", serial=2)
        fields = (msg.path, msg.hash_val, msg.mode, msg.serial, msg.refresh)
        assert fields == ("/a", 1, "r", 2, False)
        with pytest.raises(TypeError):
            pr.QueryFile("/a", 1)

    def test_a_field_needs_a_wire_kind(self):
        with pytest.raises(TypeError, match="no wire kind"):

            @pr.message
            class Bad:
                names: list

    def test_required_fields_come_first(self):
        with pytest.raises(TypeError, match="without a default"):

            @pr.message
            class Bad:
                a: int = 0
                b: str


def _example(kind):
    return {pr.STR: "x", pr.BYTES: b"x", pr.STRS: ("x",), pr.SCALAR: 1}[kind]
