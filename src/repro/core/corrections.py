"""Cluster membership and lazy cache-accuracy corrections.

Cached location information in Scalla is *approximate*: "once recorded it is
not corrected when the external configuration changes" (paper §III-A4).
Correcting millions of cached objects eagerly on every membership change
would be O(cache size); instead the cmsd corrects an object only when it is
fetched, using two pieces of O(1)-maintained state:

* ``V_m`` — per exported path, the set of servers *eligible* to hold files
  under that path (maintained at login/drop time), and
* the connection clock — an array ``C[0..63]`` of per-slot counters plus a
  master counter ``N_c``; ``C[j]`` records the "time" (N_c value) at which
  the server in slot *j* last connected.

When a location object whose snapshot ``C_n`` differs from the current
``N_c`` is fetched, the correction vector ``V_c`` (servers that connected
after the object was cached) is generated and applied per Figure 3::

    V_q = (V_q | V_c) & V_m
    V_h = V_h & ~V_q & V_m
    V_p = V_p & ~V_q & V_m
    C_n = N_c

(The published figure typesets the complement bar over ``V_q`` ambiguously;
the prose — "the old value less the servers that need to be queried" — fixes
the intended ``& ~V_q``.)

The four membership events of §III-A4 map to methods here:

1. *server disconnects*   → :meth:`ClusterMembership.disconnect` (slot kept,
   marked offline; fetched objects move its bits from V_h/V_p to V_q),
2. *server dropped*       → :meth:`ClusterMembership.drop` (removed from all
   V_m; the V_m mask applied at every fetch scrubs it from cached vectors),
3. *un-dropped reconnect* → :meth:`ClusterMembership.login` with the same
   paths (same slot; counts as a connection so objects cached while it was
   away re-query it),
4. *new server connects*  → :meth:`ClusterMembership.login` (fresh slot).

A reconnect that declares a *different* path set is treated as drop + new
connection, exactly as the paper prescribes.

A :class:`ServerSlot` is everything a cmsd knows about one child, the
selection inputs of §II-B3 (load, free space, selection count) included:
a new record starts them at zero, a same-member re-login keeps them.  The
liveness policy lives here too, clock-agnostic:
:meth:`~ClusterMembership.heartbeat` stores a member's report and refreshes
it (case 3 for an offline one), and :meth:`~ClusterMembership.expire`
applies cases 1 and 2 as of a given ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import bitvec
from repro.core.location import LocationObject

__all__ = ["ServerSlot", "ClusterMembership", "apply_corrections"]


@dataclass(slots=True)
class ServerSlot:
    """One of the 64 subordinate slots of a cmsd: its record of the child."""

    index: int
    name: str
    paths: frozenset[str]
    #: The child's cmsd host (its Login's sender) and declared role.
    host: str = ""
    role: str = "server"
    #: From its latest heartbeat ("" until one follows its Login).
    site: str = ""
    #: When its latest Login or heartbeat arrived.
    last_seen: float = 0.0
    online: bool = True
    #: Utilization in [0, 1] and free bytes, from its latest heartbeat.
    load: float = 0.0
    free_space: float = 0.0
    #: How often a selection rule chose it (§II-B3's "selection
    #: frequency", :mod:`repro.core.selection`); the cmsd resets it at
    #: each Login.
    selections: int = 0


@dataclass
class _PathEntry:
    """Registry record for one exported path prefix."""

    v_m: int = 0
    #: Reference counts per slot so overlapping exports un-register cleanly.
    refcount: dict[int, int] = field(default_factory=dict)


class ClusterMembership:
    """Tracks a cmsd's direct subordinates and the correction state.

    All mutating operations are O(number of paths the server exports) — the
    "extremely light" registration the paper contrasts with GFS's
    full-manifest upload (§V).  Nothing here ever touches cached location
    objects; corrections are applied lazily at fetch time by
    :func:`apply_corrections`.
    """

    def __init__(self, *, obs=None, node: str = "") -> None:
        #: Slot index -> its :class:`ServerSlot`, or None.  Read-only outside.
        self.slots: list[ServerSlot | None] = [None] * bitvec.MAX_SERVERS
        self._by_name: dict[str, int] = {}
        #: Master connection counter N_c.
        self.n_c: int = 0
        #: Per-slot connection counters C[].
        self.c: list[int] = [0] * bitvec.MAX_SERVERS
        self._paths: dict[str, _PathEntry] = {}
        #: ``_paths.items()`` as a tuple, in insertion order, for
        #: :meth:`eligible`; rebuilt only when a prefix is added or removed
        #: (entries are shared, so V_m updates need no rebuild).
        self._prefixes: tuple[tuple[str, _PathEntry], ...] = ()
        #: Mask of slots that are members but currently offline.
        self.v_offline: int = 0
        #: Mask of slots currently occupied (online or offline).
        self.v_members: int = 0
        #: Cumulative disconnect and drop events (logins are ``n_c``).
        self.disconnects: int = 0
        self.drops: int = 0
        # Observability (repro.obs): membership churn counters plus live
        # member/online gauges — the inputs the lazy-correction machinery
        # reacts to.
        if obs is not None:
            obs.metrics.pull(
                self,
                counters=[
                    ("membership_logins_total", "n_c"),
                    ("membership_disconnects_total", "disconnects"),
                    ("membership_drops_total", "drops"),
                ],
                gauges=[
                    ("membership_members", lambda m: m.member_count()),
                    ("membership_online", lambda m: bitvec.count(m.v_online)),
                ],
                node=node,
            )

    # -- queries -------------------------------------------------------------

    @property
    def v_online(self) -> int:
        """Mask of occupied, currently reachable slots."""
        return self.v_members & ~self.v_offline & bitvec.FULL_MASK

    def slot_of(self, name: str) -> int | None:
        """Slot index of server *name*, or None if not a member."""
        return self._by_name.get(name)

    def member_count(self) -> int:
        return bitvec.count(self.v_members)

    def eligible(self, path: str) -> int:
        """V_m for *path*: union of exporters over every matching prefix.

        The manager-level namespace is flat — "file paths are treated as
        simple prefixes to a file name" (§II-B4) — so eligibility is a
        prefix match against the registered export prefixes.
        """
        v_m = 0
        for prefix, entry in self._prefixes:
            if path.startswith(prefix):
                v_m |= entry.v_m
        return v_m

    def connected_since(self, c_n: int) -> int:
        """Correction vector V_c: slots whose C[i] exceeds snapshot *c_n*."""
        v_c = 0
        for i in range(bitvec.MAX_SERVERS):
            if self.c[i] > c_n:
                v_c |= bitvec.bit(i)
        return v_c

    # -- membership events -----------------------------------------------------

    def login(self, name: str, paths, *, slot=None, host="", role="server", now=0.0) -> int:
        """Register server *name* exporting *paths*; returns its slot, whose
        record gets *host*, *role*, ``last_seen = now`` and no site.  A
        re-login of the same member updates its record in place; a new
        record starts with no load, free space or selections.

        Handles all four §III-A4 cases:

        * unknown name → new connection into a free (or caller-chosen) slot;
        * known, offline, same paths → un-dropped reconnect (same slot);
        * known, same paths, online → idempotent re-login (still counts as a
          connection, forcing re-query of anything cached meanwhile);
        * known but different paths → implicit drop then fresh login, per
          "if the server reconnects ... but has a new set of exported paths
          the reconnection is also treated as a new connection".
        """
        path_set = frozenset(paths)
        if not path_set:
            raise ValueError("a server must export at least one path")
        existing = self._by_name.get(name)
        if existing is not None:
            current = self.slots[existing]
            assert current is not None
            if current.paths != path_set:
                self.drop(existing)
            else:
                current.host, current.role, current.site = host, role, ""
                current.last_seen = now
                current.online = True
                self.v_offline &= ~bitvec.bit(existing) & bitvec.FULL_MASK
                self._stamp_connection(existing)
                return existing

        if slot is None:
            slot = self._find_free_slot()
        elif self.slots[slot] is not None:
            raise ValueError(f"slot {slot} already occupied by {self.slots[slot].name!r}")
        if not 0 <= slot < bitvec.MAX_SERVERS:
            raise ValueError(f"slot {slot} outside [0, {bitvec.MAX_SERVERS})")

        self.slots[slot] = ServerSlot(
            index=slot, name=name, paths=path_set, host=host, role=role, last_seen=now
        )
        self._by_name[name] = slot
        self.v_members |= bitvec.bit(slot)
        self.v_offline &= ~bitvec.bit(slot) & bitvec.FULL_MASK
        # sorted(): path_set is a frozenset and registration order decides
        # dict insertion order in self._paths, which eligible() iterates.
        known = len(self._paths)
        for p in sorted(path_set):
            entry = self._paths.setdefault(p, _PathEntry())
            entry.v_m |= bitvec.bit(slot)
            entry.refcount[slot] = entry.refcount.get(slot, 0) + 1
        if len(self._paths) != known:
            self._prefixes = tuple(self._paths.items())
        self._stamp_connection(slot)
        return slot

    def disconnect(self, name: str) -> int:
        """Mark server *name* offline (case 1).  Returns its slot.

        The server stays a member — "the hope is that the server is
        encountering a transient problem and will soon reconnect" — so its
        V_m bits are untouched and cached info mentioning it stays valid.
        """
        slot = self._require_slot(name)
        entry = self.slots[slot]
        assert entry is not None
        entry.online = False
        self.v_offline |= bitvec.bit(slot)
        self.disconnects += 1
        return slot

    def drop(self, slot_or_name) -> int:
        """Remove a server from the cluster entirely (case 2).

        Scrubs the slot from every V_m in which it appears; the per-fetch
        V_m mask then lazily erases it from all cached vectors.  The slot
        becomes reusable by future logins.
        """
        if isinstance(slot_or_name, str):
            slot = self._require_slot(slot_or_name)
        else:
            slot = slot_or_name
        entry = self.slots[slot]
        if entry is None:
            raise KeyError(f"slot {slot} is not occupied")
        known = len(self._paths)
        for p in sorted(entry.paths):
            pe = self._paths[p]
            pe.refcount.pop(slot, None)
            pe.v_m &= ~bitvec.bit(slot) & bitvec.FULL_MASK
            if not pe.refcount:
                del self._paths[p]
        if len(self._paths) != known:
            self._prefixes = tuple(self._paths.items())
        del self._by_name[entry.name]
        self.slots[slot] = None
        mask = ~bitvec.bit(slot) & bitvec.FULL_MASK
        self.v_members &= mask
        self.v_offline &= mask
        self.drops += 1
        return slot

    # -- liveness ------------------------------------------------------------

    def heartbeat(
        self, name: str, now: float, site: str = "", load: float = 0.0, free_space: float = 0.0
    ) -> int | None:
        """Member *name* was heard from at *now*, at *site*, reporting *load*
        and *free_space*: returns its slot (None for a non-member).  An
        offline member logs in again with its own record (case 3), so
        objects cached meanwhile re-query it."""
        slot = self._by_name.get(name)
        if slot is None:
            return None
        entry = self.slots[slot]
        if not entry.online:
            self.login(name, entry.paths, host=entry.host, role=entry.role, now=now)
        entry.site = site
        entry.last_seen = now
        entry.load = load
        entry.free_space = free_space
        return slot

    def expire(self, now: float, disconnect_after: float, drop_after: float) -> None:
        """§III-A4's two-phase removal as of *now*: a member silent for
        more than *disconnect_after* goes offline (case 1), an offline one
        silent for more than *drop_after* is dropped (case 2).  Slot order;
        within one call a disconnect and a drop commute."""
        slots = self.slots
        for index in bitvec.iter_bits(self.v_members):
            entry = slots[index]
            silent_for = now - entry.last_seen
            if entry.online:
                if silent_for > disconnect_after:
                    self.disconnect(entry.name)
            elif silent_for > drop_after:
                self.drop(index)

    # -- internals ---------------------------------------------------------

    def _stamp_connection(self, slot: int) -> None:
        self.n_c += 1
        self.c[slot] = self.n_c

    def _find_free_slot(self) -> int:
        free = ~self.v_members & bitvec.FULL_MASK
        idx = bitvec.first_bit(free)
        if idx < 0:
            raise OverflowError(
                "all 64 subordinate slots occupied; grow the tree instead "
                "(paper §II-B1: sets of 64 arranged in a 64-ary tree)"
            )
        return idx

    def _require_slot(self, name: str) -> int:
        slot = self._by_name.get(name)
        if slot is None:
            raise KeyError(f"unknown server {name!r}")
        return slot


def apply_corrections(
    loc: LocationObject,
    membership: ClusterMembership,
    v_m: int,
    *,
    v_c: int | None = None,
) -> bool:
    """Correct *loc*'s vectors against current membership (Figure 3).

    *v_m* is the eligibility vector for the file's path, looked up by the
    caller — "the appropriate V_m ... is looked up prior and passed to the
    cache look-up method".  Pass a precomputed *v_c* to use a window-memoized
    correction vector (§III-A4's V_wc optimization); when None the vector is
    generated from the counters.

    Returns True when the C_n/N_c correction fired (used by the cache to
    maintain the per-window memo).  Independent of that, the V_m mask and
    the offline-to-V_q migration are applied on every fetch — the former
    scrubs dropped servers, the latter implements "any servers that are
    currently offline ... are added to the location object's V_q".
    """
    corrected = False
    if loc.c_n != membership.n_c:
        if v_c is None:
            v_c = membership.connected_since(loc.c_n)
        loc.v_q = (loc.v_q | v_c) & v_m
        loc.v_h = loc.v_h & ~loc.v_q & v_m & bitvec.FULL_MASK
        loc.v_p = loc.v_p & ~loc.v_q & v_m & bitvec.FULL_MASK
        loc.c_n = membership.n_c
        corrected = True
    else:
        loc.v_h &= v_m
        loc.v_p &= v_m
        loc.v_q &= v_m

    offline = (loc.v_h | loc.v_p) & membership.v_offline
    if offline:
        off_mask = ~offline & bitvec.FULL_MASK
        loc.v_h &= off_mask
        loc.v_p &= off_mask
        loc.v_q |= offline
    return corrected
