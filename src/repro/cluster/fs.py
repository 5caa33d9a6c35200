"""Per-server in-memory filesystem.

"At a data server level, the namespace conforms to full POSIX semantics
since each data server uses the host's native file system" (§II-B4).  This
module is that native file system, reduced to what the experiments exercise:
hierarchical paths, create/read/write/remove/stat/list, and byte contents.

Contents are immutable ``bytes`` shared with whoever supplied them until the
first write: a cluster populated with thousands of identical zero-filled
replicas holds one buffer per size, not one per file.  The first
:meth:`ServerFS.write` to a file gives it a private ``bytearray``
(copy-on-write).  A write past the end fills the gap with zeros, and reads
past the end are short, as in POSIX.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FileData", "ServerFS", "FSError"]


class FSError(Exception):
    """Filesystem operation failure (missing file, duplicate create...)."""


@dataclass(slots=True)
class FileData:
    """One stored file.  ``data`` is shared ``bytes`` until the file is
    first written, a private ``bytearray`` after."""

    path: str
    data: bytes | bytearray = b""
    created_at: float = 0.0

    @property
    def size(self) -> int:
        return len(self.data)


class ServerFS:
    """A single data server's local store."""

    def __init__(self) -> None:
        self._files: dict[str, FileData] = {}
        # Running sum of every file's size: heartbeats report free space
        # once a second per server, so total_bytes() must not walk the
        # whole store.
        self._total = 0
        self.bytes_written = 0
        self.bytes_read = 0
        #: Called with the path before every create, put and remove: a
        #: server cmsd holding queries as records watches while it holds
        #: any (a file that appears must answer the ones still pending).
        #: A tuple, replaced (never mutated) to add or drop a watcher.
        self.watchers: tuple = ()

    def __len__(self) -> int:
        return len(self._files)

    def exists(self, path: str) -> bool:
        return path in self._files

    def create(self, path: str, now: float = 0.0) -> FileData:
        if not path.startswith("/"):
            raise FSError(f"path must be absolute: {path!r}")
        if path in self._files:
            raise FSError(f"file exists: {path!r}")
        for watch in self.watchers:
            watch(path)
        f = FileData(path=path, created_at=now)
        self._files[path] = f
        return f

    def put(self, path: str, data: bytes, now: float = 0.0) -> FileData:
        """Create-or-replace with contents (cluster population helper).

        A caller's ``bytes`` are kept as they are (shared, never mutated
        here); anything mutable is copied so later changes by the caller
        cannot reach the stored file.
        """
        if type(data) is not bytes:
            data = bytes(data)
        for watch in self.watchers:
            watch(path)
        f = FileData(path=path, data=data, created_at=now)
        old = self._files.get(path)
        if old is not None:
            self._total -= old.size
        self._files[path] = f
        self._total += f.size
        return f

    def stat(self, path: str) -> FileData:
        try:
            return self._files[path]
        except KeyError:
            raise FSError(f"no such file: {path!r}") from None

    def read(self, path: str, offset: int, length: int) -> bytes:
        f = self.stat(path)
        if offset < 0 or length < 0:
            raise FSError("negative offset/length")
        chunk = bytes(f.data[offset : offset + length])
        # Sparse semantics: reads inside the file size but beyond written
        # data yield zeros; reads past EOF are short (POSIX).
        self.bytes_read += len(chunk)
        return chunk

    def write(self, path: str, offset: int, data: bytes) -> int:
        f = self.stat(path)
        if offset < 0:
            raise FSError("negative offset")
        contents = f.data
        if type(contents) is not bytearray:
            contents = f.data = bytearray(contents)  # copy-on-write
        end = offset + len(data)
        if end > len(contents):
            self._total += end - len(contents)
            contents.extend(b"\x00" * (end - len(contents)))
        contents[offset:end] = data
        self.bytes_written += len(data)
        return len(data)

    def remove(self, path: str) -> None:
        for watch in self.watchers:
            watch(path)
        f = self._files.pop(path, None)
        if f is None:
            raise FSError(f"no such file: {path!r}")
        self._total -= f.size

    def list(self, prefix: str = "/") -> list[str]:
        """All paths under *prefix*, sorted (POSIX-ish directory walk)."""
        return sorted(p for p in self._files if p.startswith(prefix))

    def paths(self) -> list[str]:
        return sorted(self._files)

    def total_bytes(self) -> int:
        return self._total
