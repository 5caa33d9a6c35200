"""Wire messages of the simulated Scalla protocol.

Each message type is declared once, as a class body of annotated fields
under :func:`message`.  A field's annotation is its *kind* on the wire:
``str``, ``bytes``, ``tuple[str, ...]`` (a str-tuple) or a scalar
(``int``, ``float``, ``bool``).  From that declaration :func:`message`
generates the class — an immutable, hashable tuple of the field values,
equal only to a message of the same type with the same fields, whose
``repr`` is ``Name(field=value, ...)`` — and its ``wire_size``.  The
network treats messages as opaque payloads.

Sizes (in bytes) approximate the real cms/xroot protocol framing closely
enough for the registration-cost experiment (E11), where *what* is
transmitted (path prefixes vs full manifests) is the entire point.

Naming follows the paper: queries flood down, ``Have`` responses come back
only from holders (request-rarely-respond), clients get ``Redirect`` /
``Wait`` / ``NotFound`` verdicts exactly as xrootd's client protocol does.
"""

from __future__ import annotations

from _collections import _tuplegetter  # namedtuple's field accessor

__all__ = [
    "Login",
    "LoginAck",
    "Heartbeat",
    "HeartbeatAck",
    "QueryFile",
    "HaveFile",
    "Locate",
    "Redirect",
    "Wait",
    "NotFound",
    "Prepare",
    "PrepareAck",
    "Open",
    "OpenAck",
    "OpenFail",
    "Read",
    "ReadAck",
    "Write",
    "WriteAck",
    "Close",
    "CloseAck",
    "Stat",
    "StatAck",
    "Remove",
    "RemoveAck",
    "List",
    "ListAck",
    "NamespaceUpdate",
    "estimate_size",
]

# -- size model and the message declaration ---------------------------------------

_BASE_OVERHEAD = 24  # rough header: lengths, opcodes, stream ids
_SCALAR_SIZE = 8

STR, BYTES, STRS, SCALAR = "str", "bytes", "strs", "scalar"

#: Field kind of each annotation a message may declare.  Strings cost
#: their UTF-8 length, byte payloads their length, a str-tuple the UTF-8
#: lengths of its members, a scalar a flat 8 bytes.  Exactness doesn't
#: matter; *scaling* does (E11 compares prefix registration against full
#: manifests).
_KINDS = {
    "str": STR,
    "bytes": BYTES,
    "tuple[str, ...]": STRS,
    "int": SCALAR,
    "float": SCALAR,
    "bool": SCALAR,
}


class Message(tuple):
    """Base of every message: the field values, in declaration order.

    ``_fields`` and ``_kinds`` hold the declaration.  Equality holds only
    between messages of one type, never with a plain tuple; messages have
    no order.  Assigning a field raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _kinds: tuple[str, ...] = ()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if type(other) is type(self):
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash((type(self), tuple(self)))

    def __lt__(self, other: object) -> bool:
        raise TypeError(f"{type(self).__qualname__} messages have no order")

    __le__ = __gt__ = __ge__ = __lt__

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes (generated per type)."""
        raise NotImplementedError


def _size_term(kind: str, index: int) -> str:
    """Source of the wire cost of field *index*, a non-scalar *kind*."""
    if kind == STR:
        return f"len(self[{index}].encode())"
    if kind == BYTES:
        return f"len(self[{index}])"
    return (
        f'(sum(len(str(v).encode("utf-8")) for v in self[{index}]) '
        f"if self[{index}] else 0)"
    )


def message(cls: type) -> type[Message]:
    """Build the message class a class body of annotated fields declares.

    Fields without a default come first, as in a dataclass.  The class's
    docstring carries over; its methods do not (a message is data).
    """
    names: list[str] = []
    kinds: list[str] = []
    defaults: list[object] = []
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        if annotation not in _KINDS:
            raise TypeError(f"{cls.__name__}.{name}: no wire kind for {annotation!r}")
        if name.startswith("_") or hasattr(Message, name):
            raise TypeError(f"{cls.__name__}.{name}: reserved field name")
        if name in cls.__dict__:
            defaults.append(cls.__dict__[name])
        elif defaults:
            raise TypeError(f"{cls.__name__}.{name}: field without a default after one with")
        names.append(name)
        kinds.append(_KINDS[annotation])
    if not names:
        raise TypeError(f"{cls.__name__} declares no fields")  # () would be falsy
    args = ", ".join(names)
    size = _BASE_OVERHEAD + _SCALAR_SIZE * kinds.count(SCALAR)
    terms = [_size_term(kind, i) for i, kind in enumerate(kinds) if kind != SCALAR]
    source = (
        f"def __new__(_cls, {args}):\n"
        f"    return _tuple_new(_cls, ({args},))\n"
        f"def wire_size(self):\n"
        f"    return {' + '.join([str(size), *terms])}\n"
    )
    namespace: dict = {"_tuple_new": tuple.__new__}
    exec(source, namespace)
    new, wire_size = namespace["__new__"], namespace["wire_size"]
    new.__defaults__ = tuple(defaults) or None
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    wire_size.__qualname__ = f"{cls.__qualname__}.wire_size"
    wire_size.__doc__ = Message.wire_size.__doc__
    body = {
        "__slots__": (),
        "__doc__": cls.__doc__,
        "__module__": cls.__module__,
        "__qualname__": cls.__qualname__,
        "_fields": tuple(names),
        "_kinds": tuple(kinds),
        "__new__": new,
        "wire_size": wire_size,
    }
    for i, name in enumerate(names):
        body[name] = _tuplegetter(i, f"{cls.__name__}.{name}")
    return type(cls.__name__, (Message,), body)


def estimate_size(msg: Message) -> int:
    """Approximate on-the-wire size of a message, in bytes.

    Hot senders call ``msg.wire_size()`` directly; this is the same number.
    """
    return msg.wire_size()


# -- cmsd control plane -------------------------------------------------------


@message
class Login:
    """Subordinate cmsd announces itself to its parent.

    Carries only the exported path *prefixes* — never a file manifest.
    This is the design §V contrasts with GFS: "nodes need only identify
    path prefixes for their hosted data".
    """

    node: str  # node name (not host)
    role: str  # Role.value of the subordinate
    paths: tuple[str, ...]
    instance: int = 0  # restart counter, diagnostics only


@message
class LoginAck:
    slot: int


@message
class Heartbeat:
    """Periodic liveness + metrics report from subordinate to parent.

    The parent keeps ``load`` and ``free_space`` on the child's membership
    record (§II-B3's "load, selection frequency, space" criteria).  New
    files go to the eligible child with the most free space; no selection
    rule reads load yet.
    """

    node: str
    load: float = 0.0
    free_space: float = 0.0
    site: str = ""


@message
class HeartbeatAck:
    """Parent's liveness reply; a run of missed acks makes the subordinate
    re-login, which is how a restarted (state-less) parent rebuilds its
    membership "within seconds" (§V)."""

    node: str
    known: bool  # False: parent does not know the sender -> re-login now


@message
class QueryFile:
    """Parent asks a subordinate whether it has *path* (flood, §II-B2)."""

    path: str
    hash_val: int  # streamed along so nobody rehashes (§III-B1)
    mode: str  # AccessMode.READ / .WRITE
    serial: int  # parent-side epoch, for diagnostics
    #: Client-initiated refresh (§III-C1), propagated down the tree: an
    #: interior node receiving it resets its cached entry before
    #: answering.  Without propagation a supervisor's stale negative —
    #: e.g. a query that was lost on the wire, leaving silence that looks
    #: exactly like "nobody has it" — would survive the manager's own
    #: refresh forever.
    refresh: bool = False


@message
class HaveFile:
    """Positive response: the sender has (or is preparing) *path*.

    Non-responses ARE the negative responses — there is no NotHave message
    anywhere in this protocol, by design.
    """

    path: str
    hash_val: int
    node: str
    pending: bool  # True: staging from MSS (goes to V_p, not V_h)
    write_capable: bool


# -- client-facing location plane ----------------------------------------------


@message
class Locate:
    """Client asks a manager/supervisor for a server holding *path*.

    ``refresh`` and ``avoid`` implement the recovery path of §III-C1: a
    client vectored to a server that failed reissues the request "asking
    for a cache refresh along with the name of the host that failed".
    ``create`` marks a new-file request, which needs the non-existence
    full wait (§III-B2).
    """

    req_id: int
    reply_to: str  # client's host
    path: str
    mode: str
    create: bool = False
    refresh: bool = False
    avoid: tuple[str, ...] = ()
    #: Requesting client's site, for locality-aware selection (extension:
    #: production cmsd derives this from the client's address).
    client_site: str = ""


@message
class Redirect:
    req_id: int
    path: str
    target: str  # node name to contact next
    target_role: str  # server -> open there; supervisor -> locate again
    pending: bool = False  # target is still staging the file


@message
class Wait:
    """Back off *delay* seconds and reissue the request.

    ``watch`` True means the sender parked this request for late-response
    reconciliation: a server answer landing after the fast-response window
    closed (slow WAN links, stragglers) may still turn into an unsolicited
    :class:`Redirect` under the *same* ``req_id``, so the client should
    keep listening while it waits instead of sleeping blind.  False is the
    paper's plain back-off (ablations, anchor exhaustion).
    """

    req_id: int
    path: str
    delay: float
    watch: bool = False


@message
class NotFound:
    req_id: int
    path: str


@message
class Prepare:
    """Bulk pre-location: spawn parallel background look-ups (§III-B2)."""

    req_id: int
    reply_to: str
    paths: tuple[str, ...]


@message
class PrepareAck:
    req_id: int
    scheduled: int


# -- xrootd data plane ---------------------------------------------------------


@message
class Open:
    req_id: int
    reply_to: str
    path: str
    mode: str
    create: bool = False


@message
class OpenAck:
    req_id: int
    handle: int
    size: int


@message
class OpenFail:
    req_id: int
    path: str
    reason: str


@message
class Read:
    req_id: int
    reply_to: str
    handle: int
    offset: int
    length: int


@message
class ReadAck:
    req_id: int
    data: bytes


@message
class Write:
    req_id: int
    reply_to: str
    handle: int
    offset: int
    data: bytes


@message
class WriteAck:
    req_id: int
    written: int


@message
class Close:
    req_id: int
    reply_to: str
    handle: int


@message
class CloseAck:
    req_id: int


@message
class Stat:
    req_id: int
    reply_to: str
    path: str


@message
class StatAck:
    req_id: int
    exists: bool
    size: int


@message
class Remove:
    req_id: int
    reply_to: str
    path: str


@message
class RemoveAck:
    req_id: int
    removed: bool


@message
class List:
    """Server-local listing (full POSIX semantics exist only at leaves)."""

    req_id: int
    reply_to: str
    prefix: str


@message
class ListAck:
    req_id: int
    names: tuple[str, ...]


@message
class NamespaceUpdate:
    """Server -> cnsd notification keeping the global namespace (§II-B4
    footnote 3) eventually consistent."""

    node: str
    path: str
    op: str  # "create" | "remove"
