"""Tests for the distributed solver: equivalence with the serial
reference, Figure-1 communicator structure, timing, and memory."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cgyro.presets import small_test
from repro.cgyro.reference import SerialReference, initial_condition
from repro.cgyro.solver import CgyroSimulation
from repro.errors import MemoryLimitExceeded
from repro.machine.presets import frontier_like, single_node
from repro.vmpi.world import VirtualWorld


def make_world(n=8, **kw):
    return VirtualWorld(single_node(ranks=n), **kw)


def make_sim(world=None, n_ranks=8, inp=None, **kw):
    world = world or make_world(max(n_ranks, 1))
    inp = inp or small_test()
    return CgyroSimulation(world, range(n_ranks), inp, **kw)


class TestSetup:
    def test_decomposition_prefers_toroidal_split(self):
        sim = make_sim(n_ranks=8)
        assert sim.decomp.n_proc_2 == 4
        assert sim.decomp.n_proc_1 == 2

    def test_initial_state_matches_global_condition(self):
        inp = small_test()
        sim = make_sim(inp=inp)
        np.testing.assert_array_equal(sim.gather_h(), initial_condition(inp))

    def test_comm1_groups_are_consecutive_ranks(self):
        sim = make_sim(n_ranks=8)
        assert sim.comm1[0].ranks == (0, 1)
        assert sim.comm1[3].ranks == (6, 7)

    def test_comm2_groups_stride_across(self):
        sim = make_sim(n_ranks=8)
        assert sim.comm2[0].ranks == (0, 2, 4, 6)

    def test_buffers_registered_per_rank(self):
        world = make_world(8)
        sim = make_sim(world=world)
        ledger = world.ledgers[0]
        names = set(ledger.breakdown())
        for expected in ("h", "rk_stages", "coll_work", "cmat"):
            assert any(expected in n for n in names), expected

    def test_cmat_memory_matches_formula(self):
        world = make_world(8)
        sim = make_sim(world=world)
        per_rank = sim.scheme.cmat_bytes_per_rank(sim)
        assert world.ledgers[0].size_of("cmat") == per_rank
        d, dec = sim.dims, sim.decomp
        assert per_rank == d.nv**2 * dec.nc_loc * dec.nt_loc * 8

    def test_cmat_build_charged(self):
        world = make_world(8)
        make_sim(world=world)
        assert world.category_time("cmat_build") > 0


class TestDistributedSerialEquivalence:
    """The core correctness contract of the whole substrate."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 8])
    def test_full_steps_match_reference(self, n_ranks):
        inp = small_test()
        ref = SerialReference(inp)
        sim = make_sim(n_ranks=n_ranks, inp=inp)
        for _ in range(3):
            ref.step()
            sim.step()
        np.testing.assert_allclose(sim.gather_h(), ref.h, rtol=1e-9, atol=1e-18)

    def test_nonlinear_steps_match_reference(self):
        inp = small_test(nonlinear=True, amp=0.1)
        ref = SerialReference(inp)
        sim = make_sim(n_ranks=8, inp=inp)
        for _ in range(2):
            ref.step()
            sim.step()
        np.testing.assert_allclose(sim.gather_h(), ref.h, rtol=1e-9, atol=1e-18)

    def test_streaming_phase_alone_matches(self):
        inp = small_test()
        ref = SerialReference(inp)
        sim = make_sim(n_ranks=4, inp=inp)
        expected = ref.streaming_step(ref.h)
        sim.streaming_phase()
        np.testing.assert_allclose(sim.gather_h(), expected, rtol=1e-10, atol=1e-18)

    def test_collision_phase_alone_matches(self):
        inp = small_test()
        ref = SerialReference(inp)
        sim = make_sim(n_ranks=4, inp=inp)
        expected = ref.collision_step(ref.h)
        sim.collision_phase()
        np.testing.assert_allclose(sim.gather_h(), expected, rtol=1e-10, atol=1e-18)

    def test_diagnostics_match_reference(self):
        inp = small_test()
        ref = SerialReference(inp)
        sim = make_sim(n_ranks=8, inp=inp)
        ref.run(2)
        for _ in range(2):
            sim.step()
        want = ref.diagnostics()
        flux, phi2 = sim.diagnostics()
        np.testing.assert_allclose(flux, want["flux"], rtol=1e-9, atol=1e-20)
        np.testing.assert_allclose(phi2, want["phi2"], rtol=1e-9, atol=1e-20)


class TestFigure1CommunicationLogic:
    """Stock CGYRO reuses comm_1 for the str AllReduce AND the
    str<->coll AllToAll (the paper's Figure 1)."""

    def test_allreduce_and_alltoall_share_communicator(self):
        world = make_world(8)
        sim = make_sim(world=world)
        sim.step()
        ar_labels = {
            ev.comm_label
            for ev in world.trace.filter(kind="allreduce", category="str_comm")
        }
        a2a_labels = {
            ev.comm_label
            for ev in world.trace.filter(kind="alltoall", category="coll_comm")
        }
        assert ar_labels == a2a_labels  # same comm_1 groups
        assert all("comm1" in l for l in ar_labels)

    def test_str_allreduce_participants_split_nv(self):
        world = make_world(8)
        sim = make_sim(world=world)
        sim.streaming_phase()
        for ev in world.trace.filter(kind="allreduce", category="str_comm"):
            assert ev.size == sim.decomp.n_proc_1

    def test_allreduce_count_scales_with_chunks(self):
        """4 RK stages x n_chunks x 2 moments AllReduces per comm_1 group
        per step (field and upwind reduced separately, as in CGYRO)."""
        world = make_world(8)
        sim = make_sim(world=world)
        sim.streaming_phase()
        n_chunks = len(sim._field_chunks())
        events = world.trace.filter(kind="allreduce", category="str_comm")
        assert len(events) == 4 * n_chunks * 2 * sim.decomp.n_proc_2

    def test_nl_transposes_use_comm2(self):
        world = make_world(8)
        sim = make_sim(world=world, inp=small_test(nonlinear=True))
        sim.nonlinear_phase()
        labels = {
            ev.comm_label for ev in world.trace.filter(kind="alltoall", category="nl_comm")
        }
        assert labels and all("comm2" in l for l in labels)

    def test_coll_transpose_message_sizes(self):
        world = make_world(8)
        sim = make_sim(world=world)
        sim.collision_phase()
        events = world.trace.filter(kind="alltoall", category="coll_comm")
        d, dec = sim.dims, sim.decomp
        expected = d.nc * dec.nv_loc * dec.nt_loc * 16
        for ev in events:
            assert ev.nbytes == expected


class TestReportingAndTiming:
    def test_report_row_contents(self):
        sim = make_sim()
        row = sim.run_report_interval()
        assert row.step == sim.inp.steps_per_report
        assert row.wall_s > 0
        assert row.categories["str_comm"] > 0
        assert row.categories["coll_comm"] > 0
        assert row.str_comm_s == row.categories["str_comm"]
        assert row.comm_s >= row.str_comm_s
        assert row.flux.shape == (sim.dims.nt,)

    def test_run_returns_rows(self):
        rows = make_sim().run(2)
        assert len(rows) == 2
        assert rows[1].step == 2 * rows[0].step

    def test_wall_time_includes_all_categories(self):
        sim = make_sim()
        row = sim.run_report_interval()
        assert row.wall_s >= max(row.categories.values())


class TestMemoryEnforcement:
    def test_oversubscribed_memory_raises(self):
        """With a tiny per-rank budget, setup OOMs — the mechanism behind
        'a single CGYRO simulation requires at least 32 nodes'."""
        machine = replace(single_node(4), mem_per_rank_bytes=10_000.0)
        world = VirtualWorld(machine, enforce_memory=True)
        with pytest.raises(MemoryLimitExceeded):
            CgyroSimulation(world, range(4), small_test())

    def test_fits_with_adequate_memory(self):
        machine = replace(single_node(4), mem_per_rank_bytes=64 * 2**20)
        world = VirtualWorld(machine, enforce_memory=True)
        sim = CgyroSimulation(world, range(4), small_test())
        assert world.ledgers[0].in_use_bytes > 0

    def test_state_bytes_per_rank_excludes_cmat(self):
        world = make_world(8)
        sim = make_sim(world=world)
        total = world.ledgers[0].in_use_bytes
        assert sim.state_bytes_per_rank() == total - world.ledgers[0].size_of("cmat")


class TestMultiSimulationIsolation:
    def test_two_sims_on_disjoint_ranks_do_not_interact(self):
        world = VirtualWorld(single_node(ranks=8))
        a = CgyroSimulation(world, range(0, 4), small_test(), label="a")
        b = CgyroSimulation(world, range(4, 8), small_test(seed=9), label="b")
        ref_a = SerialReference(small_test())
        ref_b = SerialReference(small_test(seed=9))
        for _ in range(2):
            a.step()
            b.step()
            ref_a.step()
            ref_b.step()
        np.testing.assert_allclose(a.gather_h(), ref_a.h, rtol=1e-9, atol=1e-18)
        np.testing.assert_allclose(b.gather_h(), ref_b.h, rtol=1e-9, atol=1e-18)
