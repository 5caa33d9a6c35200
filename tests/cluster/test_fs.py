"""Unit tests for the per-server filesystem."""

import random

import pytest

from repro.cluster.fs import FSError, ServerFS


class TestCreate:
    def test_create_and_exists(self):
        fs = ServerFS()
        fs.create("/store/a", now=1.0)
        assert fs.exists("/store/a")
        assert fs.stat("/store/a").size == 0
        assert fs.stat("/store/a").created_at == 1.0

    def test_duplicate_create_rejected(self):
        fs = ServerFS()
        fs.create("/a")
        with pytest.raises(FSError, match="exists"):
            fs.create("/a")

    def test_relative_path_rejected(self):
        with pytest.raises(FSError, match="absolute"):
            ServerFS().create("a/b")

    def test_put_replaces(self):
        fs = ServerFS()
        fs.put("/a", b"one")
        fs.put("/a", b"twotwo")
        assert fs.stat("/a").size == 6


class TestReadWrite:
    def test_write_then_read(self):
        fs = ServerFS()
        fs.create("/a")
        assert fs.write("/a", 0, b"hello") == 5
        assert fs.read("/a", 0, 5) == b"hello"

    def test_sparse_write_zero_fills(self):
        fs = ServerFS()
        fs.create("/a")
        fs.write("/a", 4, b"x")
        assert fs.read("/a", 0, 5) == b"\x00\x00\x00\x00x"

    def test_read_past_eof_is_short(self):
        fs = ServerFS()
        fs.put("/a", b"abc")
        assert fs.read("/a", 2, 100) == b"c"
        assert fs.read("/a", 10, 5) == b""

    def test_overwrite_middle(self):
        fs = ServerFS()
        fs.put("/a", b"abcdef")
        fs.write("/a", 2, b"XY")
        assert fs.read("/a", 0, 6) == b"abXYef"

    def test_negative_offset_rejected(self):
        fs = ServerFS()
        fs.put("/a", b"abc")
        with pytest.raises(FSError):
            fs.read("/a", -1, 2)
        with pytest.raises(FSError):
            fs.write("/a", -1, b"x")

    def test_missing_file_raises(self):
        with pytest.raises(FSError):
            ServerFS().read("/nope", 0, 1)

    def test_io_accounting(self):
        fs = ServerFS()
        fs.put("/a", b"abc")
        fs.read("/a", 0, 3)
        fs.write("/a", 0, b"zz")
        assert fs.bytes_read == 3
        assert fs.bytes_written == 2


class TestRemoveAndList:
    def test_remove(self):
        fs = ServerFS()
        fs.put("/a", b"x")
        fs.remove("/a")
        assert not fs.exists("/a")

    def test_remove_missing_raises(self):
        with pytest.raises(FSError):
            ServerFS().remove("/a")

    def test_list_by_prefix(self):
        fs = ServerFS()
        for p in ("/store/run1/a", "/store/run1/b", "/store/run2/c", "/atlas/x"):
            fs.put(p, b"")
        assert fs.list("/store/run1") == ["/store/run1/a", "/store/run1/b"]
        assert fs.list() == fs.paths()
        assert len(fs) == 4

    def test_total_bytes(self):
        fs = ServerFS()
        fs.put("/a", b"12345")
        fs.put("/b", b"12")
        assert fs.total_bytes() == 7

    def test_total_bytes_tracks_random_mutations(self):
        """The running count equals the sum over files after every op:
        put (new and replacing), create, write (in place and extending),
        remove — including the ones that fail."""
        rng = random.Random(20120521)
        fs = ServerFS()
        paths = [f"/store/f{i}" for i in range(6)]
        for _ in range(2000):
            path = rng.choice(paths)
            op = rng.choice(("put", "create", "write", "remove"))
            try:
                if op == "put":
                    fs.put(path, bytes(rng.randrange(40)))
                elif op == "create":
                    fs.create(path)
                elif op == "write":
                    fs.write(path, rng.randrange(50), bytes(rng.randrange(20)))
                else:
                    fs.remove(path)
            except FSError:
                pass  # duplicate create / missing file: state unchanged
            assert fs.total_bytes() == sum(fs.stat(p).size for p in fs.paths())


class TestCopyOnWrite:
    """Contents are shared until written: one buffer may back many files."""

    def test_write_to_one_sharer_leaves_the_other_unchanged(self):
        zeros = bytes(8)
        fs = ServerFS()
        fs.put("/a", zeros)
        fs.put("/b", zeros)
        assert fs.stat("/a").data is fs.stat("/b").data  # shared, not copied
        fs.write("/a", 2, b"xy")
        assert bytes(fs.stat("/a").data) == b"\x00\x00xy\x00\x00\x00\x00"
        assert bytes(fs.stat("/b").data) == zeros
        assert zeros == bytes(8)
        assert fs.total_bytes() == 16

    def test_extending_write_on_a_shared_file(self):
        zeros = bytes(4)
        fs = ServerFS()
        fs.put("/a", zeros)
        fs.put("/b", zeros)
        fs.write("/b", 6, b"z")
        assert bytes(fs.stat("/b").data) == b"\x00" * 6 + b"z"
        assert bytes(fs.stat("/a").data) == zeros
        assert fs.total_bytes() == 4 + 7
        assert fs.read("/b", 5, 10) == b"\x00z"  # short read past EOF

    @pytest.mark.parametrize("view", [False, True])
    def test_put_copies_mutable_contents(self, view):
        buf = bytearray(b"abc")
        fs = ServerFS()
        fs.put("/a", memoryview(buf) if view else buf)
        buf[0] = ord("X")
        assert bytes(fs.stat("/a").data) == b"abc"
        fs.write("/a", 0, b"Z")
        assert buf == bytearray(b"Xbc")

    def test_created_file_takes_writes(self):
        fs = ServerFS()
        fs.create("/a")
        fs.write("/a", 0, b"hi")
        assert bytes(fs.stat("/a").data) == b"hi"
        assert fs.total_bytes() == 2
