"""Server selection: the two rules that pick one holder.

When more than one node can serve a file, "a selection is made based on
configuration defined criteria (e.g., load, selection frequency, space,
etc.)" (paper §II-B3).  The cmsd applies two fixed rules over the 64-bit
candidate vectors, reading each candidate's membership record
(:class:`~repro.core.corrections.ServerSlot`):

* reads go to the holder selected least often (:func:`least_selected`),
  which with equal traffic is a strict rotation;
* new files go to the eligible server with the most free space its
  heartbeats report (:func:`most_space`).

Heartbeats report load too, and the record keeps it, but no rule reads it
yet.  Both rules walk the candidates in ascending slot order and keep the
first strict best, so ties go to the lower slot and every pick is
deterministic.  Each counts the pick on the chosen record.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.bitvec import FULL_MASK
from repro.core.corrections import ServerSlot

__all__ = ["least_selected", "most_space"]


def least_selected(candidates: int, slots: Sequence[ServerSlot | None]) -> int:
    """The candidate slot with the fewest selections; raises on an empty
    vector.  *slots* holds the records, by slot index, of every candidate."""
    v = candidates & FULL_MASK
    if not v:
        raise ValueError("cannot select from an empty candidate vector")
    best = None
    while v:
        low = v & -v
        child = slots[low.bit_length() - 1]
        if best is None or child.selections < best.selections:
            best = child
        v ^= low
    best.selections += 1
    return best.index


def most_space(candidates: int, slots: Sequence[ServerSlot | None]) -> int:
    """The candidate slot with the most free space; raises on an empty
    vector.  *slots* holds the records, by slot index, of every candidate."""
    v = candidates & FULL_MASK
    if not v:
        raise ValueError("cannot select from an empty candidate vector")
    best = None
    while v:
        low = v & -v
        child = slots[low.bit_length() - 1]
        if best is None or child.free_space > best.free_space:
            best = child
        v ^= low
    best.selections += 1
    return best.index
