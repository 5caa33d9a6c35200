"""Unit tests for the two server selection rules."""

import pytest

from repro.core import bitvec
from repro.core.corrections import ServerSlot
from repro.core.selection import least_selected, most_space


def records():
    """A full set of 64 membership records, every one at zero."""
    return [
        ServerSlot(index=i, name=f"srv{i}", paths=frozenset({"/store"}))
        for i in range(bitvec.MAX_SERVERS)
    ]


class TestRoundRobin:
    """Reads: the least-selected holder, a rotation under equal traffic."""

    def test_rotates_over_candidates(self):
        slots = records()
        candidates = bitvec.from_indices([2, 5, 9])
        picks = [least_selected(candidates, slots) for _ in range(6)]
        assert picks == [2, 5, 9, 2, 5, 9]

    def test_empty_vector_raises(self):
        with pytest.raises(ValueError):
            least_selected(0, records())

    def test_selection_counts_recorded(self):
        slots = records()
        least_selected(bitvec.bit(4), slots)
        assert slots[4].selections == 1

    def test_tie_goes_to_the_lower_slot(self):
        slots = records()
        slots[11].selections = slots[40].selections = 3
        slots[11].free_space = slots[40].free_space = 100.0
        assert least_selected(bitvec.from_indices([40, 11]), slots) == 11


class TestMostSpace:
    """Creates: the eligible server with the most free space."""

    def test_prefers_most_space(self):
        slots = records()
        slots[0].free_space = 10.0
        slots[5].free_space = 500.0
        assert most_space(bitvec.from_indices([0, 5]), slots) == 5

    def test_empty_vector_raises(self):
        with pytest.raises(ValueError):
            most_space(0, records())

    def test_selection_counts_recorded(self):
        slots = records()
        most_space(bitvec.bit(4), slots)
        assert slots[4].selections == 1

    def test_tie_goes_to_the_lower_slot(self):
        slots = records()
        slots[11].selections = slots[40].selections = 3
        slots[11].free_space = slots[40].free_space = 100.0
        assert most_space(bitvec.from_indices([40, 11]), slots) == 11
