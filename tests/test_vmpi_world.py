"""Tests for the virtual world: clocks, charging, tracing, categories."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import MemoryLimitExceeded, VmpiError
from repro.machine.presets import generic_cluster, single_node
from repro.vmpi.algorithms import AllreduceAlgorithm
from repro.vmpi.communicator import Communicator
from repro.vmpi.world import VirtualWorld


class TestConstruction:
    def test_defaults_to_full_machine(self, small_machine):
        w = VirtualWorld(small_machine)
        assert w.n_ranks == 16

    def test_partial_job(self, small_machine):
        w = VirtualWorld(small_machine, n_ranks=6)
        assert w.n_ranks == 6

    def test_too_many_ranks_rejected(self, small_machine):
        with pytest.raises(VmpiError):
            VirtualWorld(small_machine, n_ranks=17)

    def test_memory_enforcement_flag(self):
        m = replace(single_node(2), mem_per_rank_bytes=100.0)
        enforced = VirtualWorld(m, enforce_memory=True)
        with pytest.raises(MemoryLimitExceeded):
            enforced.ledgers[0].alloc("big", 200)
        relaxed = VirtualWorld(m, enforce_memory=False)
        relaxed.ledgers[0].alloc("big", 200)  # tracked but not enforced


class TestClocks:
    def test_compute_advances_only_named_ranks(self, small_world):
        small_world.charge_compute([1, 2], seconds=3.0)
        assert small_world.clock[1] == 3.0
        assert small_world.clock[0] == 0.0

    def test_flops_use_machine_rate(self):
        m = generic_cluster()  # 1 GF/s per rank
        w = VirtualWorld(m)
        w.charge_compute(0, flops=2e9)
        assert w.clock[0] == pytest.approx(2.0)

    def test_per_rank_mapping_charges(self, small_world):
        small_world.charge_compute([0, 1], seconds={0: 1.0, 1: 2.0})
        assert small_world.clock[0] == 1.0
        assert small_world.clock[1] == 2.0

    @pytest.mark.parametrize(
        "amounts",
        [{"flops": {0: 1.0}}, {"seconds": {0: 1.0, 1: 2.0, 7: 1.0}}, {"seconds": {0: 1.0, 5: 1.0}}],
        ids=["missing", "extra", "other"],
    )
    def test_a_per_rank_mapping_must_name_exactly_the_charged_ranks(
        self, small_world, amounts
    ):
        """A missing rank used to raise a bare KeyError; an extra one's
        charge was silently dropped."""
        with pytest.raises(VmpiError, match="per-rank charge names ranks"):
            small_world.charge_compute([0, 1], **amounts)
        assert not small_world.clock.any() and small_world.categories() == ()

    def test_requires_exactly_one_of_seconds_flops(self, small_world):
        with pytest.raises(VmpiError):
            small_world.charge_compute(0)
        with pytest.raises(VmpiError):
            small_world.charge_compute(0, seconds=1.0, flops=1.0)

    def test_collective_synchronises_participants(self, small_world):
        small_world.charge_compute(3, seconds=10.0)
        comm = Communicator(small_world, [0, 3])
        comm.allreduce({0: 1.0, 3: 2.0})
        # rank 0 waited for rank 3, then both advanced by the cost
        assert small_world.clock[0] == small_world.clock[3]
        assert small_world.clock[0] > 10.0

    def test_elapsed_is_max_clock(self, small_world):
        small_world.charge_compute(5, seconds=7.0)
        assert small_world.elapsed() == 7.0
        assert small_world.elapsed([0, 1]) == 0.0

    @pytest.mark.parametrize("ranks", [[-1], [16], [0, 0]], ids=["negative", "past", "twice"])
    def test_elapsed_and_category_time_refuse_a_bad_rank_set(self, small_world, ranks):
        """-1 used to wrap around to the last rank's clock; 16 raised a
        bare IndexError, and category_time a bare KeyError."""
        small_world.charge_compute(15, seconds=2.0, category="c")
        with pytest.raises(VmpiError, match="out of range|names a rank twice"):
            small_world.elapsed(ranks)
        with pytest.raises(VmpiError, match="out of range|names a rank twice"):
            small_world.category_time("c", ranks)
        assert small_world.elapsed([]) == 0.0
        assert small_world.elapsed(iter([15])) == small_world.category_time("c", (15,)) == 2.0

    def test_a_rank_named_twice_is_refused_before_any_clock_moves(self, small_world):
        """It used to charge rank 0 twice while its span and metric said once."""
        with pytest.raises(VmpiError, match="names a rank twice"):
            small_world.charge_compute([0, 0], seconds=1.0)
        assert not small_world.clock.any() and small_world.categories() == ()

    @pytest.mark.parametrize("rank", [-1, 16], ids=["negative", "past-the-world"])
    def test_sync_charge_refuses_a_rank_out_of_range_before_any_clock_moves(
        self, small_world, rank
    ):
        """-1 used to move rank 15's clock and then raise a KeyError; 16
        raised an IndexError."""
        with pytest.raises(VmpiError, match=f"rank {rank} out of range"):
            small_world.sync_charge([rank], 1.0)
        assert not small_world.clock.any() and small_world.categories() == ()


class TestCategories:
    def test_phase_context_labels_charges(self, small_world):
        values = {r: np.ones(2) for r in range(small_world.n_ranks)}
        with small_world.phase("str_comm"):
            small_world.comm_world().allreduce(values)
        with small_world.phase("coll_comm"):
            small_world.comm_world().allreduce(values)
        assert small_world.category_time("str_comm") > 0
        assert small_world.category_time("coll_comm") > 0
        assert set(small_world.categories()) == {"str_comm", "coll_comm"}

    def test_nested_phases_use_innermost(self, small_world):
        with small_world.phase("outer"):
            with small_world.phase("inner"):
                small_world.charge_compute(0, seconds=1.0)
        assert small_world.category_time("inner") == 1.0
        assert small_world.category_time("outer") == 0.0

    def test_explicit_category_overrides_context(self, small_world):
        with small_world.phase("ctx"):
            small_world.charge_compute(0, seconds=1.0, category="explicit")
        assert small_world.category_time("explicit") == 1.0

    def test_reduce_modes(self, small_world):
        small_world.charge_compute([0, 1], seconds={0: 1.0, 1: 3.0}, category="c")
        assert small_world.category_time("c", reduce="max") == 3.0
        assert small_world.category_time("c", reduce="sum") == 4.0
        assert small_world.category_time("c", [0, 1], reduce="mean") == 2.0

    @pytest.mark.parametrize("ranks", [None, [0, 1], []], ids=["all", "some", "none"])
    def test_a_misspelt_reduce_is_refused_whatever_the_rank_list(
        self, small_world, ranks
    ):
        """An empty rank list used to answer 0.0 before the mode was
        looked at."""
        with pytest.raises(VmpiError, match="unknown reduce 'bogus'"):
            small_world.category_time("c", ranks, reduce="bogus")
        assert small_world.category_time("c", [], reduce="mean") == 0.0

    def test_breakdown_covers_all_categories(self, small_world):
        small_world.charge_compute(0, seconds=1.0, category="a")
        small_world.charge_compute(0, seconds=2.0, category="b")
        bd = small_world.category_breakdown()
        assert bd == {"a": 1.0, "b": 2.0}


class TestTracing:
    def test_collectives_are_traced(self, small_world):
        comm = small_world.comm_world()
        comm.allreduce({r: 1.0 for r in range(16)})
        comm.alltoall({r: [np.ones(1)] * 16 for r in range(16)})
        events = small_world.trace.events
        assert [e.kind for e in events] == ["allreduce", "alltoall"]
        assert events[0].size == 16
        assert events[0].n_nodes == 4
        assert events[0].cost_s > 0

    def test_trace_records_algorithm_and_category(self, small_world):
        with small_world.phase("str_comm"):
            small_world.comm_world().allreduce(
                {r: 1.0 for r in range(16)},
                algorithm=AllreduceAlgorithm.RECURSIVE_DOUBLING,
            )
        ev = small_world.trace.events[-1]
        assert ev.algorithm == "recursive-doubling"
        assert ev.category == "str_comm"

    def test_trace_can_be_disabled(self, small_machine):
        w = VirtualWorld(small_machine, trace=False)
        w.comm_world().allreduce({r: 1.0 for r in range(w.n_ranks)})
        assert len(w.trace) == 0

    def test_trace_queries(self, small_world):
        comm = small_world.comm_world()
        with small_world.phase("a"):
            comm.alltoall({r: [np.ones(1)] * 16 for r in range(16)})
        with small_world.phase("b"):
            comm.allreduce({r: np.ones(4) for r in range(16)})
        tr = small_world.trace
        assert len(tr.filter(kind="alltoall")) == 1
        assert len(tr.filter(category="b")) == 1
        assert sum(ev.nbytes for ev in tr.filter(kind="allreduce")) == 32
        assert "world" in {ev.comm_label for ev in tr}
        assert "allreduce" in tr.render_summary()


class TestCostPlacementCoupling:
    def test_intra_node_group_is_cheaper(self, small_world):
        """Groups inside one node beat same-size groups spanning nodes."""
        intra = Communicator(small_world, [0, 1, 2, 3], label="intra")
        spread = Communicator(small_world, [0, 4, 8, 12], label="spread")
        data_i = {r: np.ones(1024) for r in intra.ranks}
        data_s = {r: np.ones(1024) for r in spread.ranks}
        intra.allreduce(data_i)
        spread.allreduce(data_s)
        ev_i = next(ev for ev in small_world.trace if ev.comm_label == "intra")
        ev_s = next(ev for ev in small_world.trace if ev.comm_label == "spread")
        assert ev_i.cost_s < ev_s.cost_s
        assert ev_i.n_nodes == 1 and ev_s.n_nodes == 4

    def test_nic_contention_raises_cost(self, small_world):
        """More ranks per node sharing the NIC -> more expensive."""
        two_nodes_dense = Communicator(
            small_world, [0, 1, 2, 3, 4, 5, 6, 7], label="dense"
        )  # 4 ranks/node on 2 nodes
        two_per_node = Communicator(
            small_world, [0, 1, 4, 5, 8, 9, 12, 13], label="sparse"
        )  # 2 ranks/node on 4 nodes
        payload = 1 << 20
        data = {r: np.ones(payload // 8) for r in two_nodes_dense.ranks}
        two_nodes_dense.allreduce(data)
        data = {r: np.ones(payload // 8) for r in two_per_node.ranks}
        two_per_node.allreduce(data)
        dense = next(ev for ev in small_world.trace if ev.comm_label == "dense")
        sparse = next(ev for ev in small_world.trace if ev.comm_label == "sparse")
        assert dense.cost_s > sparse.cost_s
