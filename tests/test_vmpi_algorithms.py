"""Tests for collective cost formulas (repro.vmpi.algorithms)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import CollectiveError
from repro.vmpi.algorithms import (
    AllreduceAlgorithm,
    AlltoallAlgorithm,
    EffectiveLink,
    allreduce_cost,
    alltoall_cost,
)

LINK = EffectiveLink(latency_s=1e-6, bandwidth_Bps=1e9, overhead_s=1e-5)


class TestAllreduce:
    def test_ring_formula(self):
        # p=4, 1e6 bytes: o + 2*3*a + 2*(3/4)*1e6/1e9
        expected = 1e-5 + 6e-6 + 1.5e-3
        assert allreduce_cost(4, 1e6, LINK, AllreduceAlgorithm.RING) == pytest.approx(expected)

    def test_recursive_doubling_formula(self):
        # p=8: 3 steps of (a + B/bw)
        expected = 1e-5 + 3 * (1e-6 + 1e-3)
        got = allreduce_cost(8, 1e6, LINK, AllreduceAlgorithm.RECURSIVE_DOUBLING)
        assert got == pytest.approx(expected)

    def test_reduce_bcast_is_twice_tree(self):
        rd = allreduce_cost(8, 1e6, LINK, AllreduceAlgorithm.RECURSIVE_DOUBLING)
        rb = allreduce_cost(8, 1e6, LINK, AllreduceAlgorithm.REDUCE_BCAST)
        assert rb == pytest.approx(2 * (rd - LINK.overhead_s) + LINK.overhead_s)

    def test_single_rank_costs_only_overhead(self):
        for algo in AllreduceAlgorithm:
            assert allreduce_cost(1, 1e6, LINK, algo) == LINK.overhead_s

    def test_ring_cost_is_monotone_in_p(self):
        """The paper's claim: AllReduce cost grows with participant count."""
        costs = [allreduce_cost(p, 4096, LINK, AllreduceAlgorithm.RING) for p in range(2, 65)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_ring_roughly_linear_in_p_for_small_messages(self):
        """For latency-dominated messages, ring cost ~ (p-1)."""
        link = EffectiveLink(latency_s=1e-6, bandwidth_Bps=1e12, overhead_s=0.0)
        c8 = allreduce_cost(8, 8, link, AllreduceAlgorithm.RING)
        c64 = allreduce_cost(64, 8, link, AllreduceAlgorithm.RING)
        assert c64 / c8 == pytest.approx(63 / 7, rel=1e-6)

    @given(
        p=st.integers(min_value=1, max_value=512),
        nbytes=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    )
    def test_nonnegative_and_at_least_overhead(self, p, nbytes):
        for algo in AllreduceAlgorithm:
            assert allreduce_cost(p, nbytes, LINK, algo) >= LINK.overhead_s

    def test_invalid_inputs_rejected(self):
        with pytest.raises(CollectiveError):
            allreduce_cost(0, 10, LINK)
        with pytest.raises(CollectiveError):
            allreduce_cost(2, -1, LINK)


class TestAlltoall:
    def test_pairwise_formula(self):
        # p=4, per-rank send 1e6: o + 3a + (1e6*3/4)/1e9
        expected = 1e-5 + 3e-6 + 0.75e-3
        got = alltoall_cost(4, 1e6, LINK, AlltoallAlgorithm.PAIRWISE)
        assert got == pytest.approx(expected)

    def test_bruck_fewer_rounds_more_bytes(self):
        # Bruck wins at small messages (latency-bound), loses at large.
        small_pw = alltoall_cost(64, 64, LINK, AlltoallAlgorithm.PAIRWISE)
        small_br = alltoall_cost(64, 64, LINK, AlltoallAlgorithm.BRUCK)
        assert small_br < small_pw
        big_pw = alltoall_cost(64, 1e9, LINK, AlltoallAlgorithm.PAIRWISE)
        big_br = alltoall_cost(64, 1e9, LINK, AlltoallAlgorithm.BRUCK)
        assert big_pw < big_br

    def test_single_rank(self):
        assert alltoall_cost(1, 1e6, LINK) == LINK.overhead_s
