"""Tests for the dragonfly topology refinement."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.placement import BlockPlacement
from repro.machine.presets import generic_cluster
from repro.machine.topology import DragonflyTopology
from repro.vmpi.communicator import Communicator
from repro.vmpi.world import VirtualWorld
from repro.vmpi.cost import CommCostModel


class TestDragonflyStructure:
    def test_group_assignment(self):
        topo = DragonflyTopology(nodes_per_group=4)
        assert topo.group_of(0) == 0
        assert topo.group_of(3) == 0
        assert topo.group_of(4) == 1

    def test_spans_groups(self):
        topo = DragonflyTopology(nodes_per_group=2)
        assert not topo.spans_groups([0, 1])
        assert topo.spans_groups([1, 2])
        assert not topo.spans_groups([])

    def test_factors(self):
        topo = DragonflyTopology(
            nodes_per_group=2, global_latency_factor=3.0, global_bandwidth_taper=0.25
        )
        assert topo.latency_factor([0, 1]) == 1.0
        assert topo.latency_factor([0, 2]) == 3.0
        assert topo.bandwidth_factor([0, 1]) == 1.0
        assert topo.bandwidth_factor([0, 2]) == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nodes_per_group=0),
            dict(nodes_per_group=2, global_latency_factor=0.5),
            dict(nodes_per_group=2, global_bandwidth_taper=0.0),
            dict(nodes_per_group=2, global_bandwidth_taper=1.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(MachineError):
            DragonflyTopology(**kwargs)

    def test_negative_node_rejected(self):
        with pytest.raises(MachineError):
            DragonflyTopology(nodes_per_group=2).group_of(-1)


class TestTopologyAwareCosts:
    def make_machine(self, topo=None):
        machine = generic_cluster(n_nodes=4, ranks_per_node=2)
        return replace(machine, topology=topo)

    def test_intra_group_costs_unchanged(self):
        topo = DragonflyTopology(nodes_per_group=2, global_latency_factor=5.0)
        flat = self.make_machine(None)
        dfly = self.make_machine(topo)
        ranks = [0, 1, 2, 3]  # nodes 0,1 -> one group
        cm_flat = CommCostModel(flat, BlockPlacement(flat, 8))
        cm_dfly = CommCostModel(dfly, BlockPlacement(dfly, 8))
        assert cm_flat.effective_link(ranks) == cm_dfly.effective_link(ranks)

    def test_cross_group_pays_premium(self):
        topo = DragonflyTopology(
            nodes_per_group=2, global_latency_factor=5.0, global_bandwidth_taper=0.5
        )
        machine = self.make_machine(topo)
        cm = CommCostModel(machine, BlockPlacement(machine, 8))
        local = cm.effective_link([0, 1, 2, 3])  # group 0
        globl = cm.effective_link([0, 1, 6, 7])  # groups 0 and 1
        assert globl.latency_s == pytest.approx(5.0 * local.latency_s)
        assert globl.bandwidth_Bps == pytest.approx(0.5 * local.bandwidth_Bps)

    def test_single_node_group_never_pays(self):
        topo = DragonflyTopology(nodes_per_group=1, global_latency_factor=10.0)
        machine = self.make_machine(topo)
        cm = CommCostModel(machine, BlockPlacement(machine, 8))
        # intra-node group: flat intra link regardless of topology
        link = cm.effective_link([0, 1])
        assert link.latency_s == machine.intra.latency_s

    def test_collectives_charge_topology_premium(self):
        topo = DragonflyTopology(nodes_per_group=2, global_latency_factor=4.0)
        machine = self.make_machine(topo)
        world = VirtualWorld(machine)
        local = Communicator(world, [0, 2], label="local")  # nodes 0,1
        globl = Communicator(world, [0, 6], label="global")  # nodes 0,3
        data = {r: np.ones(64) for r in local.ranks}
        local.allreduce(data)
        data = {r: np.ones(64) for r in globl.ranks}
        globl.allreduce(data)
        ev_local = next(ev for ev in world.trace if ev.comm_label == "local")
        ev_global = next(ev for ev in world.trace if ev.comm_label == "global")
        assert ev_global.cost_s > ev_local.cost_s
