"""Server selection policies.

When more than one node can serve a file, "a selection is made based on
configuration defined criteria (e.g., load, selection frequency, space,
etc.)" (paper §II-B3).  This module implements those criteria over the
64-bit candidate vectors, reading each candidate's membership record
(:class:`~repro.core.corrections.ServerSlot`): the load and free space its
heartbeats report and how often it has been selected.

All policies are deterministic given their inputs (the random policy takes
an explicit seeded RNG), which keeps cluster simulations reproducible.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core import bitvec
from repro.core.corrections import ServerSlot

__all__ = ["SelectionPolicy", "RoundRobin", "LeastLoad", "MostSpace", "WeightedComposite", "RandomChoice"]


class SelectionPolicy:
    """Base class: choose one slot out of a candidate vector."""

    def choose(self, candidates: int, slots: Sequence[ServerSlot | None]) -> int:
        """Return the chosen slot index; raises on an empty vector.

        *slots* holds the records, by slot index, of every candidate; the
        chosen one's ``selections`` goes up by one.  Subclasses implement
        :meth:`_score`; lower score wins, ties broken by slot index for
        determinism.
        """
        best = None
        best_score = None
        for slot in bitvec.iter_bits(candidates):
            child = slots[slot]
            score = self._score(child)
            if best_score is None or score < best_score:
                best, best_score = child, score
        if best is None:
            raise ValueError("cannot select from an empty candidate vector")
        best.selections += 1
        return best.index

    def _score(self, child: ServerSlot) -> float:
        raise NotImplementedError


class RoundRobin(SelectionPolicy):
    """Pick the least-recently/least-often selected slot.

    With equal traffic this degenerates to strict rotation, which is the
    default cmsd behaviour.
    """

    def _score(self, child: ServerSlot) -> float:
        return child.selections


class LeastLoad(SelectionPolicy):
    """Pick the slot reporting the lowest load."""

    def _score(self, child: ServerSlot) -> float:
        return child.load


class MostSpace(SelectionPolicy):
    """Pick the slot with the most free space (for writes/creates)."""

    def _score(self, child: ServerSlot) -> float:
        return -child.free_space


class WeightedComposite(SelectionPolicy):
    """Configurable blend of load, selection frequency, and space.

    Mirrors cmsd's ``cms.sched`` weighting: each criterion is normalized to
    [0, 1] across the candidate set's plausible ranges and combined with the
    given weights.  Space contributes negatively (more space → better).
    """

    def __init__(self, w_load: float = 1.0, w_freq: float = 0.0, w_space: float = 0.0) -> None:
        total = w_load + w_freq + w_space
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        self.w_load = w_load / total
        self.w_freq = w_freq / total
        self.w_space = w_space / total

    def _score(self, child: ServerSlot) -> float:
        freq = child.selections
        freq_norm = freq / (1.0 + freq)
        space_norm = 1.0 / (1.0 + child.free_space)
        return self.w_load * child.load + self.w_freq * freq_norm + self.w_space * space_norm


class RandomChoice(SelectionPolicy):
    """Uniform random choice with an injected RNG (determinism in sims)."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def choose(self, candidates: int, slots: Sequence[ServerSlot | None]) -> int:
        indices = bitvec.to_indices(candidates)
        if not indices:
            raise ValueError("cannot select from an empty candidate vector")
        slot = self._rng.choice(indices)
        slots[slot].selections += 1
        return slot

    def _score(self, child: ServerSlot) -> float:  # pragma: no cover
        raise NotImplementedError("RandomChoice overrides choose()")
