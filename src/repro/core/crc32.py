"""CRC32 hashing of file names.

The cmsd cache keys its hash table with "a CRC32 encoding of the file name"
(paper §III-A1).  CRC32 is attractive for this purpose because it mixes the
long, highly structured path names HEP frameworks generate
(``/store/user/.../run001234/evts_0007.root``) far better than a simple
additive hash, at essentially memcpy speed.

Two implementations are provided:

* :func:`crc32` — delegates to :func:`zlib.crc32` (C speed).  This is what
  the cache uses.
* :func:`crc32_reference` — a table-driven pure-Python implementation of the
  same reflected CRC-32/ISO-HDLC polynomial (0xEDB88320).  It exists so the
  test suite can verify byte-for-byte agreement with zlib independent of the
  interpreter's zlib build, and to document the exact algorithm.

Both return an unsigned 32-bit value.
"""

from __future__ import annotations

import zlib

__all__ = ["crc32", "crc32_reference", "hash_name", "CRC32_POLY"]

#: Reflected generator polynomial of CRC-32/ISO-HDLC (zlib, gzip, PNG...).
CRC32_POLY = 0xEDB88320


def _build_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ CRC32_POLY
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table()


def crc32_reference(data: bytes, crc: int = 0) -> int:
    """Pure-Python CRC32, bit-identical to :func:`zlib.crc32`.

    Kept simple and obviously correct; used only by tests and as executable
    documentation of the hash the paper's cache relies on.
    """
    crc = (~crc) & 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return (~crc) & 0xFFFFFFFF


def crc32(data: bytes, crc: int = 0) -> int:
    """CRC32 of *data*, continuing from *crc* (0 for a fresh checksum)."""
    return zlib.crc32(data, crc) & 0xFFFFFFFF


def hash_name(name: str) -> int:
    """Hash a file path into the unsigned 32-bit cache key.

    Paths are encoded as UTF-8; cmsd treats the path purely as an opaque
    byte string (the manager-level namespace is flat, §II-B4), so no
    normalization is applied.  One C call: :func:`zlib.crc32` is already
    unsigned 32-bit in Python 3, so :func:`crc32`'s mask is not needed.
    """
    return zlib.crc32(name.encode("utf-8"))
