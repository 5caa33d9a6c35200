"""Cache references with authenticators.

The resolution protocol needs to touch a location object several times per
request (steps 1, 4, 6 of §III-B1) without re-hashing and re-walking the
chain each time, and — crucially — without holding a lock across the calls.
The paper's solution: the lookup returns "the reference to the location
object and a reference authenticator".  Because location objects are never
deallocated (their storage is recycled), a stale reference still points at
*a* valid object; the authenticator — a per-object generation counter bumped
on every removal — detects whether it is still *the same* object.

"A reference is valid if its authenticator equals the current counter value
in the object it points to."

A ref is a :class:`typing.NamedTuple`: every lookup builds one, and a
named tuple is built in about half the time of a frozen dataclass while
its fields are read through C-level accessors.  It compares and hashes by
value like the dataclass did (and, being a tuple, also equals a plain
tuple of the same four values).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.location import LocationObject

__all__ = ["CacheRef"]


class CacheRef(NamedTuple):
    """A lock-free handle to a cached location object.

    Immutable by design: a ref captures the object identity at lookup time
    and can be safely stashed in response-queue entries, passed between
    protocol steps, or kept across simulated time.  ``valid`` must be
    checked before every use; on False the caller performs a fresh lookup
    (and, if that also fails, asks the client to retry — §III-B1).
    """

    obj: LocationObject
    generation: int
    key: str
    hash_val: int

    @property
    def valid(self) -> bool:
        """True while the storage still holds the object we looked up."""
        return self.obj.generation == self.generation

    def get(self) -> LocationObject:
        """The referenced object; raises ``StaleReference`` when invalid."""
        if not self.valid:
            raise StaleReference(self.key)
        return self.obj


class StaleReference(Exception):
    """The referenced location object was removed (and possibly recycled)."""

    def __init__(self, key: str) -> None:
        super().__init__(f"stale cache reference for {key!r}")
        self.key = key
