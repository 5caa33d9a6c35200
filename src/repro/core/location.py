"""Location objects.

"Each file is associated with a location object that holds the file's
location state" (paper §III-A1).  The state is three 64-bit vectors:

* ``v_h`` — servers that *have* the file online,
* ``v_p`` — servers *preparing* the file (e.g. staging it from an MSS),
* ``v_q`` — servers that still need to be *queried* about the file.

Invariant (stated in the paper): bits in ``v_q`` are never present in
``v_h`` or ``v_p``.  :meth:`LocationObject.check_invariants` enforces it and
the test suite pins it with property-based tests.

Lifecycle peculiarity, quoted because it drives the design of
:mod:`repro.core.refs`:  "once a location object is created it is never
deleted though its storage area can be reused for some other location
object" (§III-B1).  Hiding an object from the hash table is done by zeroing
its *key length* — the key text itself survives, lookups just stop matching —
and each reuse bumps a generation counter so stale references can detect
that the storage now belongs to a different file.

Each object also carries ``next``, the chain link Figure 2 draws between
the location objects of one hash bucket: :mod:`repro.core.hashtable`
chains objects through it instead of keeping a container per bucket.
"""

from __future__ import annotations

from repro.analysis.violations import (
    InvariantViolation,
    VectorInvariantViolation,
    WindowAccountingViolation,
)
from repro.core import bitvec

__all__ = ["LocationObject", "NO_QUEUE"]

#: Sentinel meaning "no fast-response-queue entry is associated".
NO_QUEUE = -1


class LocationObject:
    """Mutable location state for one cached file name.

    Location objects are owned by the cache; user code receives them only
    through :class:`repro.core.refs.CacheRef` handles.  All fields are public
    on purpose — the cmsd algorithms manipulate them directly, exactly as the
    paper describes, and hiding them behind accessors would only obscure the
    correspondence to the text.

    Attributes
    ----------
    key:
        The file path this object currently describes.
    key_len:
        Effective length of ``key``.  Zero means the object is *hidden*:
        physically still chained in the table but unfindable (§III-A3).
    hash_val:
        Cached CRC32 of ``key`` so responses streaming back from servers
        need not rehash (§III-B1, "file names and hash keys are passed
        along").
    v_h, v_p, v_q:
        The three location vectors.
    c_n:
        Snapshot of the master connection counter ``N_c`` taken when the
        vectors were last corrected (§III-A4).
    t_a:
        Add-time window index, ``T_w mod 64`` at insert/refresh time.
    deadline:
        Absolute processing deadline; while unexpired it marks that some
        thread is already querying servers for this object (§III-C2).
    rq_read / rq_write:
        Fast-response-queue slot indices for readers/writers
        (``R_r``/``R_w``), or :data:`NO_QUEUE`.
    rq_read_stamp / rq_write_stamp:
        Association stamps; a queue slot reference is valid only while the
        slot's own stamp matches (loose coupling, §III-B).
    rq_retries:
        Re-query rounds already spent on the current query epoch
        (extension: bounded re-query with backoff before the full-delay
        fallback).  Reset whenever a new epoch is armed.
    generation:
        Reuse counter; incremented each time the storage is recycled for a
        new file.  A :class:`~repro.core.refs.CacheRef` is valid iff its
        recorded generation equals this value.
    chain_window:
        Index of the eviction-window chain this object is physically linked
        into, or -1 when unchained.  After a refresh, ``t_a`` may differ
        from ``chain_window`` until the deferred re-chaining pass runs
        (§III-C1).
    next:
        The next object in the same hash-table chain, or None at the end
        of the chain (or when the object is not in a table).  Owned by
        :class:`~repro.core.hashtable.LocationTable`.
    """

    __slots__ = (
        "key",
        "key_len",
        "hash_val",
        "v_h",
        "v_p",
        "v_q",
        "c_n",
        "t_a",
        "deadline",
        "rq_read",
        "rq_read_stamp",
        "rq_write",
        "rq_write_stamp",
        "rq_retries",
        "generation",
        "chain_window",
        "next",
    )

    def __init__(self, key: str = "", hash_val: int = 0, c_n: int = 0, t_a: int = 0) -> None:
        """Fresh storage; with a *key* it already describes that file.

        Every field is set once.  An object made for a key starts at
        generation 1, the value :meth:`assign` on empty storage gives, so
        new and recycled objects number their identities alike.
        """
        self.key = key
        self.key_len = len(key)
        self.hash_val = hash_val
        self.v_h = 0
        self.v_p = 0
        self.v_q = 0
        self.c_n = c_n
        self.t_a = t_a
        self.deadline = 0.0
        self.rq_read = NO_QUEUE
        self.rq_read_stamp = 0
        self.rq_write = NO_QUEUE
        self.rq_write_stamp = 0
        self.rq_retries = 0
        self.generation = 1 if key else 0
        self.chain_window = -1
        self.next: LocationObject | None = None

    # -- lifecycle ---------------------------------------------------------

    def assign(self, key: str, hash_val: int, c_n: int, t_a: int) -> None:
        """Reinitialize recycled storage for file *key*.

        The generation counter is bumped here as well as in :meth:`hide`:
        hide invalidates references, and the extra bump at reuse makes any
        stale bookkeeping that recorded the post-hide generation (e.g. a
        duplicate background-removal entry) detectably stale too.
        """
        self.generation += 1
        self.key = key
        self.key_len = len(key)
        self.hash_val = hash_val
        self.v_h = 0
        self.v_p = 0
        self.v_q = 0
        self.c_n = c_n
        self.t_a = t_a
        self.deadline = 0.0
        self.rq_read = NO_QUEUE
        self.rq_read_stamp = 0
        self.rq_write = NO_QUEUE
        self.rq_write_stamp = 0
        self.rq_retries = 0

    def hide(self) -> None:
        """Make the object unfindable and invalidate references to it.

        Implements the paper's "the text key length ... set to zero" trick:
        the object stays physically chained (so background removal can find
        it) but no lookup will match it.  The generation bump implements the
        reference-authenticator invalidation ("the counter is increased by
        one when a location object is removed from the cache").
        """
        self.key_len = 0
        self.generation += 1

    @property
    def hidden(self) -> bool:
        """True when the object cannot be found by lookups."""
        return self.key_len == 0

    def matches(self, key: str, hash_val: int) -> bool:
        """True when this visible object describes file *key*.

        Hash is compared first — it is already in hand and rejects almost
        all non-matches without touching the (potentially long) key string.
        """
        return (
            self.key_len != 0
            and self.hash_val == hash_val
            and self.key_len == len(key)
            and self.key == key
        )

    # -- vector bookkeeping --------------------------------------------------

    def set_holder(self, server: int, *, pending: bool = False) -> None:
        """Record that *server* has (or is preparing) the file.

        The server is simultaneously removed from ``v_q``: an answer has
        arrived, the server no longer needs querying.
        """
        b = bitvec.bit(server)
        if pending:
            self.v_p |= b
            self.v_h &= ~b & bitvec.FULL_MASK
        else:
            self.v_h |= b
            self.v_p &= ~b & bitvec.FULL_MASK
        self.v_q &= ~b & bitvec.FULL_MASK

    def clear_server(self, server: int) -> None:
        """Erase every mention of *server* (used when a server is dropped)."""
        mask = ~bitvec.bit(server) & bitvec.FULL_MASK
        self.v_h &= mask
        self.v_p &= mask
        self.v_q &= mask

    @property
    def known_empty(self) -> bool:
        """True when all three vectors are empty — nobody has the file and
        nobody is left to ask (resolution step 2)."""
        return self.v_h == 0 and self.v_p == 0 and self.v_q == 0

    def check_invariants(self) -> None:
        """Raise a typed :class:`InvariantViolation` on any broken invariant.

        All errors derive from ``AssertionError``, so callers that treated
        this as an assertion keep working; SimSan and tests catch the
        typed classes to know *which* paper invariant broke.
        """
        for label, vec in (("v_h", self.v_h), ("v_p", self.v_p), ("v_q", self.v_q)):
            try:
                bitvec.validate(vec)
            except (TypeError, ValueError) as exc:
                raise VectorInvariantViolation(
                    str(exc), invariant="vec-64bit", path=self.key, vector=label
                ) from exc
        if self.v_q & (self.v_h | self.v_p) != 0:
            raise VectorInvariantViolation(
                "v_q overlaps v_h|v_p",
                invariant="vq-disjoint",
                path=self.key,
                v_q=f"{self.v_q:#x}",
                v_h=f"{self.v_h:#x}",
                v_p=f"{self.v_p:#x}",
            )
        if not 0 <= self.t_a < 64:
            raise WindowAccountingViolation(
                "t_a outside window range", invariant="ta-range", path=self.key, t_a=self.t_a
            )
        if self.key_len not in (0, len(self.key)):
            raise InvariantViolation(
                "key_len is neither 0 (hidden) nor len(key)",
                invariant="keylen",
                path=self.key,
                key_len=self.key_len,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "hidden" if self.hidden else "live"
        return (
            f"<LocationObject {self.key!r} {state} gen={self.generation} "
            f"h={bitvec.format_vec(self.v_h)} p={bitvec.format_vec(self.v_p)} "
            f"q={bitvec.format_vec(self.v_q)} c_n={self.c_n} t_a={self.t_a}>"
        )
