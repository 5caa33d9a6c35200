"""The location hash table.

"Location objects are cached in memory and are accessible by a one-level
hash table using linear chaining to resolve collisions. ... The hash key is
a CRC32 encoding of the file name.  The table itself is sized to be a
Fibonacci number of entries.  When the number of entries reaches 80% of the
table size, a new table is created whose size is the subsequent Fibonacci
number and all of the keys are redistributed."  (paper §III-A1, Figure 2)

This module implements exactly that table, specialized to
:class:`~repro.core.location.LocationObject` values.  The chains are
intrusive, as Figure 2 draws them: the table is an array of chain heads
(None for an empty bucket) and each object links to the next one through
its own ``next`` attribute, so a bucket costs one array slot and no
container.  Inserts link at the head; removal unlinks by identity.  Hidden
objects — key length zero — remain chained until the eviction machinery
physically unchains them, so lookups must skip them, and the growth
trigger counts *chained* objects (live or hidden) because those are what
occupy chain positions.

Why Fibonacci and not 2^k?  With a power-of-two size the modulo keeps only
the low bits of the CRC, which are correlated across the structured path
names HEP produces; a Fibonacci modulus mixes every bit of the key.  Bench
E3 (``benchmarks/bench_e3_fibonacci.py``) reproduces footnote 4's collision
comparison against :mod:`repro.baselines.pow2table`.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.analysis.violations import TableStructureViolation
from repro.core import fibonacci
from repro.core.location import LocationObject

__all__ = ["LocationTable"]


class LocationTable:
    """Fibonacci-sized, linearly chained table of location objects.

    The table stores objects; it does not own their lifecycle (the cache's
    free list does).  ``insert``/``remove`` take the object's ``hash_val``
    as authoritative — callers computed it once and pass it along, matching
    the paper's "file names and hash keys are passed along" streamlining.
    """

    def __init__(self, initial_size: int | None = None) -> None:
        size = fibonacci.DEFAULT_INITIAL_SIZE if initial_size is None else initial_size
        if not fibonacci.is_fibonacci(size):
            raise ValueError(f"table size {size} is not a Fibonacci number")
        #: Chain heads, one per bucket; None marks an empty chain.
        self._heads: list[LocationObject | None] = [None] * size
        self._size = size
        #: Chained-object count at which the next insert grows the table.
        self._limit = size * fibonacci.GROWTH_THRESHOLD
        self._count = 0
        #: Number of resize events performed (bench F2 reads this).
        self.resizes = 0
        #: Lookup probe statistics: chain positions examined, lookups served.
        self.probes = 0
        self.lookups = 0

    # -- basic properties ---------------------------------------------------

    @property
    def size(self) -> int:
        """Current number of buckets (always a Fibonacci number)."""
        return self._size

    @property
    def count(self) -> int:
        """Number of chained objects, hidden ones included."""
        return self._count

    @property
    def load_factor(self) -> float:
        return self._count / self._size

    # -- operations ---------------------------------------------------------

    def find(self, key: str, hash_val: int) -> LocationObject | None:
        """Return the visible object for *key*, or None.

        Hidden objects in the chain are skipped — that is the whole point of
        hide-by-zero-keylen: O(1) logical removal without disturbing the
        chain structure under concurrent traversal.

        This is the fetch path the paper's latency argument rests on, so
        ``LocationObject.matches`` is inlined with ``len(key)`` hoisted out
        of the chain walk, and a zero-length key exits early — it could only
        structurally match hidden objects, which must stay unfindable.
        """
        self.lookups += 1
        obj = self._heads[hash_val % self._size]
        klen = len(key)
        pos = 0
        if klen == 0:
            while obj is not None:
                pos += 1
                obj = obj.next
            self.probes += pos
            return None
        while obj is not None:
            pos += 1
            # key_len == klen != 0 subsumes the hidden check; hash first —
            # it is already in hand and rejects almost every non-match
            # without touching the (potentially long) key string.
            if obj.hash_val == hash_val and obj.key_len == klen and obj.key == key:
                self.probes += pos
                return obj
            obj = obj.next
        self.probes += pos
        return None

    def insert(self, obj: LocationObject) -> None:
        """Link *obj* at the head of its chain, growing first if at the
        threshold.

        The caller guarantees no visible duplicate of ``obj.key`` exists
        (the cache's add path always looks up first).
        """
        if self._count + 1 > self._limit:
            self._grow()
        heads = self._heads
        idx = obj.hash_val % self._size
        obj.next = heads[idx]
        heads[idx] = obj
        self._count += 1

    def remove(self, obj: LocationObject) -> bool:
        """Physically unchain *obj*; True when it was present.

        Identity comparison, not key comparison: by removal time the object
        is normally hidden and its key may already describe nothing.
        """
        heads = self._heads
        idx = obj.hash_val % self._size
        prev = None
        cur = heads[idx]
        while cur is not None:
            if cur is obj:
                if prev is None:
                    heads[idx] = obj.next
                else:
                    prev.next = obj.next
                obj.next = None
                self._count -= 1
                return True
            prev = cur
            cur = cur.next
        return False

    def __iter__(self) -> Iterator[LocationObject]:
        """Iterate every chained object (hidden ones included)."""
        for obj in self._heads:
            while obj is not None:
                yield obj
                obj = obj.next

    def visible(self) -> Iterator[LocationObject]:
        """Iterate only objects findable by lookups."""
        for obj in self:
            if not obj.hidden:
                yield obj

    def chain_lengths(self) -> list[int]:
        """Length of every chain — the collision metric of bench E3."""
        lengths = []
        for obj in self._heads:
            n = 0
            while obj is not None:
                n += 1
                obj = obj.next
            lengths.append(n)
        return lengths

    def mean_probe_length(self) -> float:
        """Average chain positions examined per lookup so far."""
        return self.probes / self.lookups if self.lookups else 0.0

    # -- internals ---------------------------------------------------------

    def _grow(self) -> None:
        new_size = fibonacci.next_fibonacci(self._size)
        new_heads: list[LocationObject | None] = [None] * new_size
        for obj in self._heads:
            while obj is not None:
                nxt = obj.next
                idx = obj.hash_val % new_size
                obj.next = new_heads[idx]
                new_heads[idx] = obj
                obj = nxt
        self._heads = new_heads
        self._size = new_size
        self._limit = new_size * fibonacci.GROWTH_THRESHOLD
        self.resizes += 1

    def check_invariants(self, on_object: Callable[[LocationObject], None] | None = None) -> None:
        """Verify structural invariants; optionally run a per-object check.

        Raises :class:`~repro.analysis.violations.TableStructureViolation`
        (an ``AssertionError`` subclass) with bucket/key context.
        """
        if not fibonacci.is_fibonacci(self._size):
            raise TableStructureViolation(
                "table size is not a Fibonacci number", invariant="fib-size", size=self._size
            )
        total = 0
        for idx, obj in enumerate(self._heads):
            # Bounded by the count: a cyclic chain (an object inserted
            # twice links to itself) would otherwise never end.
            while obj is not None and total <= self._count:
                if obj.hash_val % self._size != idx:
                    raise TableStructureViolation(
                        "object chained in the wrong bucket",
                        invariant="bucket-placement",
                        path=obj.key,
                        bucket=idx,
                        expected=obj.hash_val % self._size,
                    )
                if on_object is not None:
                    on_object(obj)
                total += 1
                obj = obj.next
        if total != self._count:
            raise TableStructureViolation(
                "chained-object count out of sync",
                invariant="count-sync",
                count=self._count,
                chained=total,
            )
