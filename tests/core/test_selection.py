"""Unit tests for server selection policies."""

import random

import pytest

from repro.core import bitvec
from repro.core.corrections import ServerSlot
from repro.core.selection import (
    LeastLoad,
    MostSpace,
    RandomChoice,
    RoundRobin,
    WeightedComposite,
)


def records():
    """A full set of 64 membership records, every one at zero."""
    return [
        ServerSlot(index=i, name=f"srv{i}", paths=frozenset({"/store"}))
        for i in range(bitvec.MAX_SERVERS)
    ]


class TestRoundRobin:
    def test_rotates_over_candidates(self):
        slots = records()
        policy = RoundRobin()
        candidates = bitvec.from_indices([2, 5, 9])
        picks = [policy.choose(candidates, slots) for _ in range(6)]
        assert picks == [2, 5, 9, 2, 5, 9]

    def test_empty_vector_raises(self):
        with pytest.raises(ValueError):
            RoundRobin().choose(0, records())

    def test_selection_counts_recorded(self):
        slots = records()
        RoundRobin().choose(bitvec.bit(4), slots)
        assert slots[4].selections == 1


class TestLeastLoad:
    def test_prefers_lowest_load(self):
        slots = records()
        slots[1].load = 0.9
        slots[2].load = 0.1
        slots[3].load = 0.5
        assert LeastLoad().choose(bitvec.from_indices([1, 2, 3]), slots) == 2

    def test_tie_broken_by_slot_index(self):
        slots = records()
        assert LeastLoad().choose(bitvec.from_indices([7, 3]), slots) == 3


class TestMostSpace:
    def test_prefers_most_space(self):
        slots = records()
        slots[0].free_space = 10.0
        slots[5].free_space = 500.0
        assert MostSpace().choose(bitvec.from_indices([0, 5]), slots) == 5


class TestWeightedComposite:
    def test_pure_load_weight_matches_least_load(self):
        slots = records()
        slots[1].load, slots[2].load = 0.8, 0.2
        policy = WeightedComposite(w_load=1.0)
        assert policy.choose(bitvec.from_indices([1, 2]), slots) == 2

    def test_frequency_weight_spreads_selections(self):
        slots = records()
        policy = WeightedComposite(w_load=0.0, w_freq=1.0, w_space=0.0)
        candidates = bitvec.from_indices([0, 1])
        picks = [policy.choose(candidates, slots) for _ in range(4)]
        assert picks.count(0) == picks.count(1) == 2

    def test_space_weight_prefers_space(self):
        slots = records()
        slots[0].free_space, slots[1].free_space = 1.0, 1000.0
        policy = WeightedComposite(w_load=0.0, w_freq=0.0, w_space=1.0)
        assert policy.choose(bitvec.from_indices([0, 1]), slots) == 1

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedComposite(w_load=0.0, w_freq=0.0, w_space=0.0)


class TestRandomChoice:
    def test_deterministic_with_seed(self):
        candidates = bitvec.from_indices([3, 7, 11])
        picks_a = [
            RandomChoice(random.Random(42)).choose(candidates, records()) for _ in range(5)
        ]
        picks_b = [
            RandomChoice(random.Random(42)).choose(candidates, records()) for _ in range(5)
        ]
        assert picks_a == picks_b

    def test_only_candidates_chosen(self):
        rng = random.Random(1)
        policy = RandomChoice(rng)
        slots = records()
        candidates = bitvec.from_indices([5, 60])
        for _ in range(50):
            assert policy.choose(candidates, slots) in (5, 60)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RandomChoice(random.Random(0)).choose(0, records())
