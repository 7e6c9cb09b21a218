"""Tests for rank-to-node placement strategies."""

from __future__ import annotations

import pytest

from repro.errors import PlacementError
from repro.machine.placement import BlockPlacement, RoundRobinPlacement
from repro.machine.presets import generic_cluster


@pytest.fixture
def machine():
    return generic_cluster(n_nodes=4, ranks_per_node=4)  # 16 slots


class TestBlockPlacement:
    def test_consecutive_ranks_fill_nodes(self, machine):
        p = BlockPlacement(machine, 16)
        assert [p.node_of(r) for r in range(16)] == [
            0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3
        ]

    def test_partial_job(self, machine):
        p = BlockPlacement(machine, 6)
        assert p.nodes_of(range(6)) == (0, 1)

    def test_group_profiling(self, machine):
        p = BlockPlacement(machine, 16)
        assert p.spans_nodes([0, 1, 2, 3]) is False
        assert p.spans_nodes([3, 4]) is True
        assert p.ranks_per_node_of([0, 1, 4, 8, 9, 10]) == {0: 2, 1: 1, 2: 3}

    def test_out_of_range_rank(self, machine):
        p = BlockPlacement(machine, 8)
        with pytest.raises(PlacementError):
            p.node_of(8)
        with pytest.raises(PlacementError):
            p.node_of(-1)

    def test_too_many_ranks_rejected(self, machine):
        with pytest.raises(PlacementError):
            BlockPlacement(machine, 17)

    def test_empty_group_does_not_span(self, machine):
        p = BlockPlacement(machine, 8)
        assert p.spans_nodes([]) is False


class TestRoundRobinPlacement:
    def test_cycles_over_used_nodes(self, machine):
        p = RoundRobinPlacement(machine, 8)  # uses ceil(8/4)=2 nodes
        assert [p.node_of(r) for r in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_same_footprint_as_block(self, machine):
        block = BlockPlacement(machine, 10)
        rr = RoundRobinPlacement(machine, 10)
        assert len(block.nodes_of(range(10))) == len(rr.nodes_of(range(10))) == 3
