"""The paper's primary contribution: the cmsd name cache and its protocol
building blocks (Sections II-B5, III).

Everything in this package is plain, thread-free, clock-agnostic Python:
time enters only as explicit ``now`` parameters and explicit ``tick()``
calls, so the same code serves wall-clock microbenchmarks and the
discrete-event cluster simulation.
"""

from repro.core import bitvec
from repro.core.cache import CacheStats, NameCache
from repro.core.corrections import ClusterMembership, ServerSlot, apply_corrections
from repro.core import crc32
from repro.core.crc32 import crc32_reference, hash_name
from repro.core.deadline import DEFAULT_FULL_DELAY, DeadlinePolicy
from repro.core.eviction import DEFAULT_LIFETIME, WINDOW_COUNT, EvictionWindows, TickResult
from repro.core.fibonacci import GROWTH_THRESHOLD, fibonacci_numbers, is_fibonacci, next_fibonacci
from repro.core.hashtable import LocationTable
from repro.core.location import NO_QUEUE, LocationObject
from repro.core.models import PaperClaims, equilibrium_objects, memory_bound_bytes, tree_depth
from repro.core.refs import CacheRef, StaleReference
from repro.core.response_queue import (
    DEFAULT_ANCHORS,
    DEFAULT_PERIOD,
    AccessMode,
    ResponseQueue,
    Waiter,
)

__all__ = [
    "bitvec",
    "NameCache",
    "CacheStats",
    "ClusterMembership",
    "ServerSlot",
    "apply_corrections",
    "crc32",
    "crc32_reference",
    "hash_name",
    "DeadlinePolicy",
    "DEFAULT_FULL_DELAY",
    "EvictionWindows",
    "TickResult",
    "WINDOW_COUNT",
    "DEFAULT_LIFETIME",
    "fibonacci_numbers",
    "next_fibonacci",
    "is_fibonacci",
    "GROWTH_THRESHOLD",
    "LocationTable",
    "LocationObject",
    "NO_QUEUE",
    "PaperClaims",
    "equilibrium_objects",
    "memory_bound_bytes",
    "tree_depth",
    "CacheRef",
    "StaleReference",
    "ResponseQueue",
    "AccessMode",
    "Waiter",
    "DEFAULT_ANCHORS",
    "DEFAULT_PERIOD",
]
