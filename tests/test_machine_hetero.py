"""Heterogeneous machine model: per-node multipliers, presets, costs.

Satellite of the autotuner PR: the planner only has something to
optimise when the machine model can express *which* nodes are slow.
These tests pin the multiplier semantics (speed scales compute,
bandwidth scales the shared inter-node link), the preset shapes, and —
critically — that a machine with no multipliers (or all-1.0
multipliers) behaves bit-identically to the homogeneous model the rest
of the suite calibrated against.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import MachineError
from repro.machine.presets import (
    degraded_fabric_cluster,
    frontier_like,
    generic_cluster,
    mixed_generation_cluster,
    throttled_frontier,
    tiered_gpu_cluster,
)
from repro.machine.placement import BlockPlacement
from repro.vmpi.world import VirtualWorld
from repro.vmpi.cost import CommCostModel


# ----------------------------------------------------------------------
# model semantics
# ----------------------------------------------------------------------
class TestMultiplierValidation:
    def test_wrong_length_rejected(self):
        base = generic_cluster(n_nodes=4)
        with pytest.raises(MachineError):
            throttled_frontier(4, n_throttled=5)
        from dataclasses import replace

        with pytest.raises(MachineError):
            replace(base, node_speed=(1.0, 0.5))

    def test_non_positive_rejected(self):
        from dataclasses import replace

        base = generic_cluster(n_nodes=2)
        with pytest.raises(MachineError):
            replace(base, node_speed=(1.0, 0.0))
        with pytest.raises(MachineError):
            replace(base, node_bandwidth=(-1.0, 1.0))

    def test_list_normalised_to_tuple(self):
        from dataclasses import replace

        m = replace(generic_cluster(n_nodes=2), node_speed=[1.0, 0.5])
        assert m.node_speed == (1.0, 0.5)

    def test_homogeneous_has_no_multipliers(self):
        m = generic_cluster(n_nodes=4)
        assert m.node_speed is None
        assert m.node_bandwidth is None

    def test_accessor_range_checks(self):
        m = throttled_frontier(4, n_throttled=2)
        with pytest.raises(MachineError):
            m.speed_of(4)
        with pytest.raises(MachineError):
            m.bandwidth_factor_of(-1)


class TestSubmachine:
    def test_picks_specific_nodes_in_order(self):
        m = throttled_frontier(4, n_throttled=2)
        sub = m.submachine([3, 0])
        assert sub.n_nodes == 2
        assert sub.node_speed == (0.7, 1.0)

    def test_homogeneous_submachine_is_the_machine_resized(self):
        m = generic_cluster(n_nodes=4)
        assert m.submachine([0, 1]) == replace(m, n_nodes=2)

    def test_rejects_bad_node_sets(self):
        m = generic_cluster(n_nodes=4)
        with pytest.raises(MachineError):
            m.submachine([])
        with pytest.raises(MachineError):
            m.submachine([0, 0])
        with pytest.raises(MachineError):
            m.submachine([0, 4])

    def test_compute_seconds_node_aware(self):
        m = throttled_frontier(4, n_throttled=2)
        fast = m.compute_seconds(1.0e6, node=0)
        slow = m.compute_seconds(1.0e6, node=3)
        assert slow == pytest.approx(fast / 0.7)
        # node omitted: nominal rate, as before
        assert m.compute_seconds(1.0e6) == pytest.approx(fast)


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------
class TestHeterogeneousPresets:
    def test_throttled_frontier_shape(self):
        m = throttled_frontier(8, n_throttled=3)
        assert m.node_speed == (1.0,) * 5 + (0.7,) * 3
        assert m.node_bandwidth is None  # network untouched
        base = frontier_like(8)
        assert m.ranks_per_node == base.ranks_per_node
        assert m.flops_per_rank == base.flops_per_rank

    def test_mixed_generation_has_both_multipliers(self):
        m = mixed_generation_cluster(8)
        assert m.node_speed == (1.0,) * 4 + (0.6,) * 4
        assert m.node_bandwidth == (1.0,) * 4 + (0.5,) * 4

    def test_degraded_fabric_is_bandwidth_only(self):
        m = degraded_fabric_cluster(8, n_degraded=2)
        assert m.node_speed is None
        assert m.node_bandwidth == (1.0,) * 6 + (0.25,) * 2

    def test_tiered_gpu_covers_all_nodes(self):
        m = tiered_gpu_cluster(13)
        assert len(m.node_speed) == 13
        assert set(m.node_speed) == {1.0, 0.8, 0.55}
        # contiguous tiers, fast first
        assert list(m.node_speed) == sorted(m.node_speed, reverse=True)

    def test_preset_parameter_validation(self):
        with pytest.raises(MachineError):
            throttled_frontier(4, n_throttled=5)
        with pytest.raises(MachineError):
            degraded_fabric_cluster(4, n_degraded=9)

    def test_presets_usable_standalone(self):
        # a world on a heterogeneous preset runs without the planner
        m = mixed_generation_cluster(2, ranks_per_node=2)
        world = VirtualWorld(m)
        comm = world.comm_world()
        comm.allreduce({r: 1.0 for r in range(world.n_ranks)})
        assert world.elapsed() > 0.0


# ----------------------------------------------------------------------
# cost model and world charging
# ----------------------------------------------------------------------
class TestHeterogeneousCosts:
    def test_effective_link_min_over_degraded_node(self):
        m = degraded_fabric_cluster(4, ranks_per_node=2)
        cm = CommCostModel(m, BlockPlacement(m, m.n_ranks))
        healthy = cm.effective_link([0, 2])       # nodes 0, 1
        degraded = cm.effective_link([0, 2, 7])   # + node 3 (degraded)
        assert degraded.bandwidth_Bps == pytest.approx(
            0.25 * healthy.bandwidth_Bps
        )

    def test_all_ones_bandwidth_matches_homogeneous(self):
        from dataclasses import replace

        m = generic_cluster(n_nodes=4, ranks_per_node=2)
        m1 = replace(m, node_bandwidth=(1.0,) * 4)
        cm = CommCostModel(m, BlockPlacement(m, m.n_ranks))
        cm1 = CommCostModel(m1, BlockPlacement(m1, m1.n_ranks))
        for group in ([0, 2], [0, 2, 4, 6], list(range(8))):
            assert cm.effective_link(group) == cm1.effective_link(group)

    def test_sharing_still_divides_bandwidth(self):
        m = degraded_fabric_cluster(4, ranks_per_node=2)
        cm = CommCostModel(m, BlockPlacement(m, m.n_ranks))
        one_per_node = cm.effective_link([0, 2])
        two_per_node = cm.effective_link([0, 1, 2, 3])
        assert two_per_node.bandwidth_Bps == pytest.approx(
            one_per_node.bandwidth_Bps / 2
        )

    def test_charge_compute_on_slow_node(self):
        m = throttled_frontier(2, n_throttled=1)
        world = VirtualWorld(m)
        rpn = m.ranks_per_node
        world.charge_compute(0, flops=1.0e6)          # node 0, nominal
        world.charge_compute(rpn, flops=1.0e6)        # node 1, throttled
        t_fast = world.elapsed([0])
        t_slow = world.elapsed([rpn])
        assert t_slow == pytest.approx(t_fast / 0.7)

    def test_homogeneous_charge_compute_unchanged(self):
        m = generic_cluster(n_nodes=2)
        world = VirtualWorld(m)
        world.charge_compute(0, flops=1.0e6)
        assert world.elapsed([0]) == pytest.approx(1.0e6 / m.flops_per_rank)
