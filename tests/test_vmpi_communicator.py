"""Tests for communicator structure: membership and sub-communicators."""

from __future__ import annotations

import pytest

from repro.errors import CommunicatorError
from repro.vmpi.communicator import Communicator


class TestStructure:
    def test_world_comm_covers_all_ranks(self, small_world):
        comm = small_world.comm_world()
        assert comm.size == 16
        assert comm.ranks == tuple(range(16))

    def test_empty_comm_rejected(self, small_world):
        with pytest.raises(CommunicatorError):
            Communicator(small_world, [])

    def test_duplicate_ranks_rejected(self, small_world):
        with pytest.raises(CommunicatorError):
            Communicator(small_world, [0, 0])

    def test_out_of_world_rank_rejected(self, small_world):
        with pytest.raises(CommunicatorError):
            Communicator(small_world, [0, 99])

    def test_sub_requires_membership(self, small_world):
        comm = Communicator(small_world, [0, 1, 2, 3])
        sub = comm.sub([2, 0])
        assert sub.ranks == (2, 0)
        with pytest.raises(CommunicatorError):
            comm.sub([4])
