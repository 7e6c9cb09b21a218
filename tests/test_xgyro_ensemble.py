"""Tests for the XGYRO ensemble: member-vs-standalone equivalence,
Figure-3 communicator separation, memory savings, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EnsembleValidationError
from repro.cgyro import CgyroSimulation, SerialReference, small_test
from repro.machine import generic_cluster, single_node
from repro.vmpi import VirtualWorld
from repro.xgyro import SequentialCgyroBaseline, XgyroEnsemble


def make_world(n=16, **kw):
    return VirtualWorld(single_node(ranks=n), **kw)


def sweep_inputs(k, **base_kw):
    base = small_test(**base_kw)
    return [
        base.with_updates(dlntdr=(2.0 + m, 2.0 + m), name=f"m{m}") for m in range(k)
    ]


class TestConstruction:
    def test_members_get_contiguous_blocks(self):
        ens = XgyroEnsemble(make_world(16), sweep_inputs(2))
        assert ens.members[0].ranks == tuple(range(8))
        assert ens.members[1].ranks == tuple(range(8, 16))
        assert ens.n_members == 2

    def test_invalid_ensemble_rejected_at_construction(self):
        bad = [small_test(), small_test(nu=0.9)]
        with pytest.raises(EnsembleValidationError):
            XgyroEnsemble(make_world(16), bad)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(EnsembleValidationError):
            XgyroEnsemble(make_world(4), [])

    def test_member_step_alone_is_forbidden(self):
        ens = XgyroEnsemble(make_world(16), sweep_inputs(2))
        with pytest.raises(EnsembleValidationError, match="XgyroEnsemble"):
            ens.members[0].collision_phase()

    def test_coll_comms_span_all_members(self):
        ens = XgyroEnsemble(make_world(16), sweep_inputs(2))
        dec = ens.members[0].decomp
        for i2, comm in ens.scheme.coll_comms.items():
            assert comm.size == 2 * dec.n_proc_1
            assert any(r in ens.members[0].ranks for r in comm.ranks)
            assert any(r in ens.members[1].ranks for r in comm.ranks)


class TestEquivalence:
    """An XGYRO member must produce exactly a standalone CGYRO run."""

    def test_members_match_standalone_cgyro(self):
        inputs = sweep_inputs(2)
        ens = XgyroEnsemble(make_world(16), inputs)
        standalones = []
        for inp in inputs:
            w = make_world(8)
            standalones.append(CgyroSimulation(w, range(8), inp))
        for _ in range(3):
            ens.step()
            for s in standalones:
                s.step()
        for member, solo in zip(ens.members, standalones):
            np.testing.assert_allclose(
                member.gather_h(), solo.gather_h(), rtol=1e-9, atol=1e-18
            )

    def test_members_match_serial_reference(self):
        inputs = sweep_inputs(4)
        ens = XgyroEnsemble(make_world(16), inputs)
        refs = [SerialReference(inp) for inp in inputs]
        for _ in range(2):
            ens.step()
            for r in refs:
                r.step()
        for member, ref in zip(ens.members, refs):
            np.testing.assert_allclose(
                member.gather_h(), ref.h, rtol=1e-9, atol=1e-18
            )

    def test_nonlinear_members_match_reference(self):
        inputs = [
            inp.with_updates(nonlinear=True, amp=0.1) for inp in sweep_inputs(2)
        ]
        ens = XgyroEnsemble(make_world(16), inputs)
        refs = [SerialReference(inp) for inp in inputs]
        for _ in range(2):
            ens.step()
            for r in refs:
                r.step()
        for member, ref in zip(ens.members, refs):
            np.testing.assert_allclose(
                member.gather_h(), ref.h, rtol=1e-9, atol=1e-18
            )

    def test_mixed_linear_nonlinear_ensemble(self):
        """The nonlinear flag is a sweep parameter: one expensive NL run
        may share cmat with cheap linear companions, and each member
        still reproduces its standalone trajectory."""
        inputs = [
            small_test(nonlinear=True, amp=0.1, name="nl"),
            small_test(nonlinear=False, amp=0.1, name="lin"),
        ]
        ens = XgyroEnsemble(make_world(16), inputs)
        refs = [SerialReference(inp) for inp in inputs]
        for _ in range(2):
            ens.step()
            for r in refs:
                r.step()
        for member, ref in zip(ens.members, refs):
            np.testing.assert_allclose(member.gather_h(), ref.h, rtol=1e-9, atol=1e-18)
        # and they genuinely diverge from each other
        assert not np.allclose(ens.members[0].gather_h(), ens.members[1].gather_h())

    def test_single_member_ensemble_matches_cgyro(self):
        """k=1 degenerates to plain CGYRO (with the split communicator)."""
        inp = small_test()
        ens = XgyroEnsemble(make_world(8), [inp])
        solo = CgyroSimulation(make_world(8), range(8), inp)
        for _ in range(2):
            ens.step()
            solo.step()
        np.testing.assert_allclose(
            ens.members[0].gather_h(), solo.gather_h(), rtol=1e-10, atol=1e-18
        )


class TestFigure3CommunicationLogic:
    """XGYRO separates the str nv communicator from the coll one."""

    def test_str_and_coll_use_different_communicators(self):
        world = make_world(16)
        ens = XgyroEnsemble(world, sweep_inputs(2))
        ens.step()
        str_labels = {
            ev.comm_label
            for ev in world.trace.filter(kind="allreduce", category="str_comm")
        }
        coll_labels = {
            ev.comm_label
            for ev in world.trace.filter(kind="alltoall", category="coll_comm")
        }
        assert str_labels.isdisjoint(coll_labels)
        assert all("xgyro.coll" in l for l in coll_labels)

    def test_str_allreduce_stays_within_member(self):
        world = make_world(16)
        ens = XgyroEnsemble(world, sweep_inputs(2))
        ens.step()
        member_sets = [set(m.ranks) for m in ens.members]
        for ev in world.trace.filter(kind="allreduce", category="str_comm"):
            assert any(set(ev.ranks) <= s for s in member_sets)

    def test_coll_alltoall_spans_members(self):
        world = make_world(16)
        ens = XgyroEnsemble(world, sweep_inputs(2))
        ens.step()
        dec = ens.members[0].decomp
        events = world.trace.filter(kind="alltoall", category="coll_comm")
        assert events
        for ev in events:
            assert ev.size == 2 * dec.n_proc_1
            for member_set in ([set(m.ranks) for m in ens.members]):
                assert set(ev.ranks) & member_set

    def test_str_group_size_shrinks_with_k(self):
        """The AllReduce group is k times smaller under XGYRO."""
        world_solo = make_world(16)
        solo = CgyroSimulation(world_solo, range(16), small_test())
        solo.streaming_phase()
        solo_size = {
            ev.size
            for ev in world_solo.trace.filter(kind="allreduce", category="str_comm")
        }.pop()
        world_ens = make_world(16)
        ens = XgyroEnsemble(world_ens, sweep_inputs(4))
        for m in ens.members:
            m.streaming_phase()
        ens_size = {
            ev.size
            for ev in world_ens.trace.filter(kind="allreduce", category="str_comm")
        }.pop()
        assert solo_size == 4 * ens_size


class TestSharedCmatMemory:
    def test_cmat_per_rank_shrinks_by_k(self):
        inp = small_test()
        world_solo = make_world(8)
        solo = CgyroSimulation(world_solo, range(8), inp)
        solo_cmat = world_solo.ledgers[0].size_of("cmat")

        world_ens = make_world(16)
        # 2 members, each 8 ranks with the same per-member decomposition
        ens = XgyroEnsemble(world_ens, sweep_inputs(2))
        ens_cmat = world_ens.ledgers[0].size_of("cmat")
        assert solo_cmat == 2 * ens_cmat

    def test_total_cmat_is_one_copy(self):
        """Summed over all ranks, the ensemble stores exactly one cmat."""
        from repro.collision.cmat import cmat_total_bytes

        world = make_world(16)
        ens = XgyroEnsemble(world, sweep_inputs(2))
        total = sum(world.ledgers[r].size_of("cmat") for r in range(16))
        assert total == cmat_total_bytes(ens.members[0].dims)

    def test_cmat_build_work_shared(self):
        """Per-rank cmat build time is ~k times smaller under XGYRO."""
        world_solo = make_world(8)
        CgyroSimulation(world_solo, range(8), small_test())
        solo_build = world_solo.category_time("cmat_build")
        world_ens = make_world(16)
        XgyroEnsemble(world_ens, sweep_inputs(2))
        ens_build = world_ens.category_time("cmat_build")
        assert solo_build == pytest.approx(2 * ens_build, rel=1e-6)


class TestReporting:
    def test_report_interval_structure(self):
        ens = XgyroEnsemble(make_world(16), sweep_inputs(2))
        report = ens.run_report_interval()
        assert len(report.member_rows) == 2
        assert report.ensemble.wall_s == pytest.approx(
            max(r.wall_s for r in report.member_rows)
        )
        for row in report.member_rows:
            assert row.categories["str_comm"] > 0
            assert row.categories["coll_comm"] > 0

    def test_sweep_produces_different_fluxes(self):
        """Different gradients -> different member physics (the point
        of running an ensemble study)."""
        ens = XgyroEnsemble(make_world(16), sweep_inputs(2))
        report = ens.run_report_interval()
        f0 = report.member_rows[0].flux
        f1 = report.member_rows[1].flux
        assert not np.allclose(f0, f1, rtol=1e-3, atol=0.0)

    def test_run_returns_reports(self):
        ens = XgyroEnsemble(make_world(16), sweep_inputs(2))
        reports = ens.run(2)
        assert len(reports) == 2
        assert reports[1].ensemble.step == 2 * reports[0].ensemble.step


class TestSequentialBaseline:
    def test_baseline_rows_per_input(self):
        machine = single_node(ranks=8)
        base = SequentialCgyroBaseline(machine, sweep_inputs(2))
        rows = base.run_interval()
        assert len(rows) == 2
        assert all(r.wall_s > 0 for r in rows)

    def test_baseline_physics_matches_ensemble_members(self):
        machine = single_node(ranks=16)
        inputs = sweep_inputs(2)
        ens = XgyroEnsemble(make_world(16), inputs)
        report = ens.run_report_interval()
        base = SequentialCgyroBaseline(machine, inputs)
        rows = base.run_interval()
        for ens_row, base_row in zip(report.member_rows, rows):
            np.testing.assert_allclose(
                ens_row.flux, base_row.flux, rtol=1e-9, atol=1e-20
            )
