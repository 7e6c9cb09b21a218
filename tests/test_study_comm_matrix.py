"""Tests for study orchestration and the communication matrix."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import InputError, VmpiError
from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.history import TimeHistory
from repro.machine.placement import BlockPlacement
from repro.machine.presets import generic_cluster, single_node
from repro.check.checker import KNOWN_KINDS
from repro.perf.comm_matrix import communication_matrix, locality_report
from repro.vmpi.world import VirtualWorld
from repro.vmpi.tracer import CollectiveEvent
from repro.xgyro.driver import XgyroEnsemble
from repro.xgyro.input import write_ensemble
from repro.xgyro.study import XgyroStudy


@pytest.fixture
def study_dir(tmp_path):
    base = small_test(steps_per_report=2)
    inputs = [base.with_updates(dlntdr=(g, g), name=f"g{g}") for g in (2.0, 4.0)]
    write_ensemble(inputs, tmp_path / "study")
    return tmp_path / "study"


class TestXgyroStudy:
    def test_run_and_outputs(self, study_dir):
        machine = replace(single_node(8), mem_per_rank_bytes=64 * 2**20)
        study = XgyroStudy(study_dir, machine)
        reports = study.run(2)
        assert len(reports) == 2
        assert all(len(h) == 2 for h in study.histories)
        study.write_outputs()
        for member in ("member00", "member01"):
            d = study_dir / member
            assert (d / "out.cgyro.timing").exists()
            assert (d / "history.npz").exists()
            assert (d / "checkpoint.npz").exists()
        summary = (study_dir / "out.xgyro.summary").read_text()
        assert "2 members" in summary
        assert "g2.0" in summary and "g4.0" in summary

    def test_histories_reloadable(self, study_dir):
        machine = replace(single_node(8), mem_per_rank_bytes=64 * 2**20)
        study = XgyroStudy(study_dir, machine)
        study.run(1)
        study.write_outputs(checkpoints=False)
        hist = TimeHistory.load(study_dir / "member00" / "history.npz")
        assert len(hist) == 1
        assert not (study_dir / "member00" / "checkpoint.npz").exists()

    def test_checkpoints_resume_members(self, study_dir):
        machine = replace(single_node(8), mem_per_rank_bytes=64 * 2**20)
        study = XgyroStudy(study_dir, machine)
        study.run(1)
        study.write_outputs()
        # resume a member standalone from the study checkpoint
        world = VirtualWorld(single_node(ranks=4))
        sim = CgyroSimulation(world, range(4), study.inputs[0])
        sim.load_checkpoint(study_dir / "member00" / "checkpoint.npz")
        assert sim.step_count == study.ensemble.members[0].step_count
        np.testing.assert_array_equal(
            sim.gather_h(), study.ensemble.members[0].gather_h()
        )

    def test_requires_manifest(self, tmp_path):
        with pytest.raises(InputError, match="input.xgyro"):
            XgyroStudy(tmp_path, single_node(ranks=4))

    def test_outputs_before_run_rejected(self, study_dir):
        study = XgyroStudy(study_dir, replace(single_node(8), mem_per_rank_bytes=64 * 2**20))
        with pytest.raises(InputError):
            study.write_outputs()
        with pytest.raises(InputError):
            study.summary()
        with pytest.raises(InputError):
            study.run(0)


class TestCommunicationMatrix:
    def test_alltoall_uniform_attribution(self):
        world = VirtualWorld(single_node(ranks=4))
        comm = world.comm_world()
        comm.alltoall({r: [np.ones(4)] * 4 for r in range(4)})  # 128 B/rank
        mat = communication_matrix(world.trace, 4)
        assert np.all(mat[~np.eye(4, dtype=bool)] == 32.0)
        assert np.all(np.diag(mat) == 0.0)

    def test_allreduce_ring_attribution(self):
        world = VirtualWorld(single_node(ranks=4))
        world.comm_world().allreduce({r: np.ones(8) for r in range(4)})  # 64 B
        mat = communication_matrix(world.trace, 4)
        expected = 2.0 * 64 * 3 / 4
        assert mat[0, 1] == pytest.approx(expected)
        assert mat[3, 0] == pytest.approx(expected)  # ring wraps
        assert mat[0, 2] == 0.0

    def test_an_empty_payload_carries_nothing(self):
        world = VirtualWorld(single_node(ranks=4))
        world.comm_world().allreduce({r: np.ones(0) for r in range(4)})
        assert communication_matrix(world.trace, 4).sum() == 0.0

    def test_validation(self):
        world = VirtualWorld(single_node(ranks=4))
        world.comm_world().allreduce({r: np.ones(2) for r in range(4)})
        with pytest.raises(VmpiError):
            communication_matrix(world.trace, 0)
        with pytest.raises(VmpiError):
            communication_matrix(world.trace, 2)

    @pytest.mark.parametrize(
        "ranks", [(-1, 0), ()], ids=["negative-rank", "no-participants"]
    )
    def test_a_rank_outside_the_world_is_refused(self, ranks):
        """(-1, 0) used to book its bytes on mat[3, 0] and mat[0, 3] —
        numpy wraps the -1 — and () raised a bare ValueError."""
        event = CollectiveEvent(
            seq=1, kind="allreduce", comm_label="c", ranks=ranks, n_nodes=1,
            nbytes=8, algorithm="ring", t_start=0.0, cost_s=1e-6, category="",
        )
        with pytest.raises(VmpiError, match="trace event 1"):
            communication_matrix(_subtrace([event]), 4)

    def test_every_known_kind_is_attributed(self):
        for kind in sorted(KNOWN_KINDS):
            event = CollectiveEvent(
                seq=1, kind=kind, comm_label="c", ranks=(0, 1), n_nodes=1,
                nbytes=8, algorithm="", t_start=0.0, cost_s=1e-6, category="",
            )
            assert communication_matrix(_subtrace([event]), 2).sum() > 0.0


class TestLocality:
    def test_xgyro_str_traffic_stays_on_node(self):
        """Under block placement, per-member str AllReduces are
        intra-node; the ensemble coll AllToAll crosses nodes."""
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        world = VirtualWorld(machine)
        base = small_test(steps_per_report=1)
        inputs = [base.with_updates(dlntdr=(g, g)) for g in (2.0, 3.0, 4.0, 5.0)]
        ens = XgyroEnsemble(world, inputs)
        ens.step()
        placement = world.placement

        str_events = world.trace.filter(kind="allreduce", category="str_comm")
        str_trace = _subtrace(str_events)
        str_loc = locality_report(
            communication_matrix(str_trace, world.n_ranks), placement
        )
        assert str_loc.inter_fraction == 0.0

        coll_events = world.trace.filter(kind="alltoall", category="coll_comm")
        coll_trace = _subtrace(coll_events)
        coll_loc = locality_report(
            communication_matrix(coll_trace, world.n_ranks), placement
        )
        assert coll_loc.inter_fraction > 0.5
        assert "crossing nodes" in coll_loc.render()

    def test_matrix_shape_validation(self):
        machine = generic_cluster(n_nodes=2, ranks_per_node=2)
        placement = BlockPlacement(machine, 4)
        with pytest.raises(VmpiError):
            locality_report(np.zeros((2, 3)), placement)
        with pytest.raises(VmpiError):
            locality_report(np.zeros((8, 8)), placement)


def _subtrace(events):
    """Wrap a list of events as a TraceLog-like iterable."""
    from repro.vmpi.tracer import TraceLog

    log = TraceLog()
    for ev in events:
        log.record(ev)
    return log
