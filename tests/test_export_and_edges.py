"""Edge-case coverage: solver guards, misc paths."""

from __future__ import annotations

import pytest

from repro.errors import InputError, VmpiError
from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.machine.presets import generic_cluster, single_node
from repro.machine.model import GiB
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.vmpi.world import VirtualWorld


class TestSolverGuards:
    def test_duplicate_ranks_rejected(self):
        world = VirtualWorld(single_node(ranks=4))
        with pytest.raises(VmpiError, match="duplicate"):
            CgyroSimulation(world, [0, 0, 1, 2], small_test())

    def test_negative_reports_rejected(self):
        world = VirtualWorld(single_node(ranks=4))
        sim = CgyroSimulation(world, range(4), small_test())
        with pytest.raises(InputError):
            sim.run(-1)

    def test_two_sims_same_rank_same_label_collide_loudly(self):
        """Accidentally stacking two simulations on one rank block is
        caught by the ledger (duplicate named allocations)."""
        world = VirtualWorld(single_node(ranks=4))
        CgyroSimulation(world, range(4), small_test(), label="a")
        with pytest.raises(ValueError, match="already live"):
            CgyroSimulation(world, range(4), small_test(), label="a")


class TestMachineEdges:
    def test_memory_report_largest_first(self):
        from repro.machine.memory import MemoryLedger

        led = MemoryLedger(None)
        for i in range(5):
            led.alloc(f"b{i}", 10 * (i + 1))
        text = led.report()
        assert text.index("b4") < text.index("b0")

    def test_machine_describe_units(self):
        m = generic_cluster()
        text = m.describe()
        assert "GiB/s" in text and "us" in text

    def test_huge_machine_model_is_cheap(self):
        """Machine models are pure data: a 10k-node machine costs
        nothing until a world is built on it."""
        from repro.machine.presets import frontier_like

        m = frontier_like(n_nodes=10_000, mem_per_rank_bytes=64 * GiB)
        assert m.n_ranks == 80_000
        assert m.n_ranks * m.mem_per_rank_bytes == pytest.approx(80_000 * 64 * GiB)


class TestWorldEdges:
    def test_elapsed_of_empty_rank_set(self):
        world = VirtualWorld(single_node(ranks=2))
        assert world.elapsed([]) == 0.0

    def test_category_time_unknown_reduce(self):
        world = VirtualWorld(single_node(ranks=2))
        with pytest.raises(VmpiError):
            world.category_time("x", reduce="median")

    def test_uncategorized_charges_are_tracked(self):
        world = VirtualWorld(single_node(ranks=2))
        world.comm_world().allreduce({0: 1.0, 1: 1.0})  # no phase context
        assert world.category_time("uncategorized") > 0

    def test_charge_compute_rejects_bad_rank_and_negative(self):
        world = VirtualWorld(single_node(ranks=2))
        with pytest.raises(VmpiError):
            world.charge_compute(5, seconds=1.0)
        with pytest.raises(VmpiError):
            world.charge_compute(0, seconds=-1.0)

    @pytest.mark.parametrize(
        "charge",
        [
            {"seconds": {0: 1.0, 1: -1.0}},  # the bad amount is not the first
            {"seconds": float("nan")},
            {"seconds": {0: 1.0, 1: float("inf")}},
            {"flops": float("inf")},
            {"flops": {0: 1e9, 1: float("nan")}},
        ],
        ids=["negative-second", "nan", "inf-second", "inf-flops", "nan-flops"],
    )
    def test_a_refused_compute_charge_moves_nothing(self, charge):
        world = VirtualWorld(single_node(ranks=3))
        Telemetry().install(world)
        with pytest.raises(VmpiError, match="negative or not finite"):
            world.charge_compute([0, 1], category="x", **charge)
        assert not world.clock.any() and world.categories() == ()
        assert world.metrics.to_dict() == MetricsRegistry().to_dict()
        assert len(world.tracer) == 0

    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf")])
    def test_a_refused_sync_charge_moves_nothing(self, seconds):
        world = VirtualWorld(single_node(ranks=3))
        world.charge_compute([0], seconds=0.5)
        with pytest.raises(VmpiError, match="negative or not finite"):
            world.sync_charge([0, 1], seconds)
        assert world.clock.tolist() == [0.5, 0.0, 0.0]
