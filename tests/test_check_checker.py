"""CollectiveChecker engine: conformance, diagnosis, move semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.check.checker import KNOWN_KINDS, CollectiveChecker
from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld


def _group(ck, ranks, kind="allreduce", label=None, **kw):
    """Post one complete collective for ``ranks``."""
    label = label or f"c{'-'.join(map(str, ranks))}"
    for r in ranks:
        ck.post(r, comm_label=label, comm_ranks=tuple(ranks), kind=kind, **kw)


class TestEngine:
    def test_valid_collective_completes(self):
        ck = CollectiveChecker()
        _group(ck, (0, 1, 2), nbytes=64, op="SUM", dtype="float64")
        assert ck.n_completed == 1
        assert not ck._open
        (posts,) = ck.completed
        assert {(p.comm_label, p.kind) for p in posts} == {("c0-1-2", "allreduce")}

    def test_the_known_kinds_are_the_two_the_model_issues(self):
        assert KNOWN_KINDS == {"allreduce", "alltoall"}

    def test_unknown_kind(self):
        ck = CollectiveChecker()
        with pytest.raises(ProtocolError) as exc:
            ck.post(0, comm_label="c", comm_ranks=(0, 1), kind="gossip")
        assert exc.value.code == "unknown-kind"
        assert exc.value.seqs

    def test_non_member_post(self):
        ck = CollectiveChecker()
        with pytest.raises(ProtocolError) as exc:
            ck.post(5, comm_label="c", comm_ranks=(0, 1), kind="allreduce")
        assert exc.value.code == "membership"
        assert 5 in exc.value.ranks

    def test_label_membership_drift(self):
        ck = CollectiveChecker()
        _group(ck, (0, 1), label="comm1", nbytes=8)
        with pytest.raises(ProtocolError) as exc:
            ck.post(0, comm_label="comm1", comm_ranks=(0, 2), kind="allreduce")
        assert exc.value.code == "membership"
        assert "changed membership" in str(exc.value)

    def test_kind_mismatch_names_both_seqs(self):
        ck = CollectiveChecker()
        ck.post(0, comm_label="c", comm_ranks=(0, 1), kind="allreduce", nbytes=8)
        with pytest.raises(ProtocolError) as exc:
            ck.post(1, comm_label="c", comm_ranks=(0, 1), kind="alltoall", nbytes=8)
        assert exc.value.code == "mismatch"
        assert len(exc.value.seqs) == 2
        assert exc.value.ranks == (0, 1)

    def test_duplicate_post(self):
        ck = CollectiveChecker()
        ck.post(0, comm_label="c", comm_ranks=(0, 1), kind="allreduce")
        with pytest.raises(ProtocolError) as exc:
            ck.post(0, comm_label="c", comm_ranks=(0, 1), kind="allreduce")
        assert exc.value.code == "mid-flight"

    def test_op_mismatch(self):
        ck = CollectiveChecker()
        ck.post(0, comm_label="c", comm_ranks=(0, 1), kind="allreduce",
                nbytes=8, op="SUM")
        with pytest.raises(ProtocolError) as exc:
            ck.post(1, comm_label="c", comm_ranks=(0, 1), kind="allreduce",
                    nbytes=8, op="MAX")
        assert exc.value.code == "mismatch"
        assert "reduce op" in str(exc.value)

    def test_dtype_mismatch(self):
        ck = CollectiveChecker()
        ck.post(0, comm_label="c", comm_ranks=(0, 1), kind="allreduce",
                nbytes=8, dtype="float64")
        with pytest.raises(ProtocolError) as exc:
            ck.post(1, comm_label="c", comm_ranks=(0, 1), kind="allreduce",
                    nbytes=8, dtype="float32")
        assert exc.value.code == "mismatch"

    def test_uniform_nbytes_enforced(self):
        ck = CollectiveChecker()
        ck.post(0, comm_label="c", comm_ranks=(0, 1), kind="allreduce", nbytes=64)
        with pytest.raises(ProtocolError) as exc:
            ck.post(1, comm_label="c", comm_ranks=(0, 1), kind="allreduce", nbytes=72)
        assert exc.value.code == "mismatch"
        assert "byte count" in str(exc.value)

    def test_vector_kinds_allow_ragged_nbytes(self):
        ck = CollectiveChecker()
        ck.post(0, comm_label="c", comm_ranks=(0, 1), kind="alltoall", nbytes=64)
        ck.post(1, comm_label="c", comm_ranks=(0, 1), kind="alltoall", nbytes=72)
        assert ck.n_completed == 1

    def test_mid_flight_overlap(self):
        """A rank blocked in one collective may not post another."""
        ck = CollectiveChecker()
        ck.post(0, comm_label="a", comm_ranks=(0, 1), kind="allreduce")
        with pytest.raises(ProtocolError) as exc:
            ck.post(0, comm_label="b", comm_ranks=(0, 2), kind="allreduce")
        assert exc.value.code == "mid-flight"
        assert set(exc.value.comm_labels) == {"a", "b"}


class TestScheduleMode:
    def test_valid_programs_complete(self):
        ck = CollectiveChecker()
        a = {"comm_label": "a", "comm_ranks": (0, 1), "kind": "allreduce"}
        b = {"comm_label": "b", "comm_ranks": (0, 1, 2, 3), "kind": "alltoall"}
        n = ck.run_programs({0: [a, b], 1: [a, b], 2: [b], 3: [b]})
        assert n == 2

    def test_ordering_bug_is_diagnosed_not_hung(self):
        """The acceptance scenario: per-member str comm vs ensemble-wide
        coll comm posted in different orders by different ranks — a real
        job hangs; the checker names the wait-for cycle."""
        ck = CollectiveChecker()
        str_c = {"comm_label": "xgyro.m0.str", "comm_ranks": (0, 1),
                 "kind": "allreduce", "nbytes": 64}
        coll = {"comm_label": "xgyro.coll.g0", "comm_ranks": (0, 1, 2, 3),
                "kind": "alltoall", "nbytes": 64}
        with pytest.raises(ProtocolError) as exc:
            ck.run_programs({
                0: [str_c, coll],   # rank 0: str first
                1: [coll, str_c],   # rank 1: coll first — the bug
                2: [coll],
                3: [coll],
            })
        err = exc.value
        assert err.code == "deadlock"
        assert "wait-for cycle" in str(err)
        assert "xgyro.m0.str" in str(err) and "xgyro.coll.g0" in str(err)
        assert 0 in err.ranks and 1 in err.ranks
        assert err.seqs  # diagnosis names the offending post seq numbers

    def test_missing_rank_is_diagnosed(self):
        ck = CollectiveChecker()
        b = {"comm_label": "b", "comm_ranks": (0, 1, 2), "kind": "allreduce"}
        with pytest.raises(ProtocolError) as exc:
            ck.run_programs({0: [b], 1: [b], 2: []})
        assert exc.value.code == "deadlock"
        assert "never posted" in str(exc.value)


class TestLockstepIntegration:
    def test_checked_simulation_step_is_clean(self, small_world):
        ck = CollectiveChecker()
        small_world.install_checker(ck)
        sim = CgyroSimulation(
            small_world, range(small_world.n_ranks), small_test(nonlinear=True)
        )
        sim.step()
        ck.assert_quiescent()
        assert ck.n_completed > 0
        assert ck.observed_events == len(small_world.trace)

    def test_checker_changes_nothing(self, small_machine):
        """Installation must have zero behavioural or cost difference."""
        def run(checked):
            world = VirtualWorld(small_machine)
            if checked:
                world.install_checker(CollectiveChecker())
            sim = CgyroSimulation(world, range(world.n_ranks), small_test())
            sim.step()
            return sim.gather_h(), world.clock.copy()

        h0, clock0 = run(False)
        h1, clock1 = run(True)
        assert np.array_equal(h0, h1)
        assert np.array_equal(clock0, clock1)

    def test_observe_collective_flags_time_overlap(self):
        ck = CollectiveChecker()

        def observe(seq, t_start, cost):
            ck.observe_collective(seq, "allreduce", "c", (0, 1), t_start, cost, False)

        observe(1, 0.0, 1.0)
        with pytest.raises(ProtocolError) as exc:
            observe(2, 0.5, 1.0)  # starts before rank freed
        assert exc.value.code == "overlap"


class TestAlltoallMoveSemantics:
    """The documented-but-unenforced footgun, now enforced."""

    def _world_comm(self):
        world = VirtualWorld(single_node(ranks=4))
        ck = CollectiveChecker()
        world.install_checker(ck)
        comm = world.comm_world()
        return world, comm, ck

    def test_resubmitting_moved_block_raises(self):
        _, comm, _ = self._world_comm()
        blocks = {
            r: [np.full((4,), float(r * 10 + j)) for j in range(comm.size)]
            for r in comm.ranks
        }
        comm.alltoall(blocks)
        with pytest.raises(ProtocolError) as exc:
            comm.alltoall(blocks)  # every block was moved by the first call
        assert exc.value.code == "moved-block"
        assert "moved" in str(exc.value)

    def test_receiver_may_forward_the_block(self):
        _, comm, ck = self._world_comm()
        blocks = {
            r: [np.full((4,), float(r * 10 + j)) for j in range(comm.size)]
            for r in comm.ranks
        }
        recv = comm.alltoall(blocks)
        # send the received blocks onward: the receiver owns them now
        comm.alltoall(recv)
        assert ck.n_completed == 2

    def test_same_object_to_two_destinations_raises(self):
        _, comm, _ = self._world_comm()
        shared = np.ones(4)
        blocks = {
            r: [shared for _ in range(comm.size)] for r in comm.ranks
        }
        with pytest.raises(ProtocolError) as exc:
            comm.alltoall(blocks)
        assert exc.value.code == "moved-block"

    def test_fresh_blocks_every_step_stay_legal(self):
        _, comm, ck = self._world_comm()
        for _ in range(3):
            blocks = {
                r: [np.zeros(4) for _ in range(comm.size)] for r in comm.ranks
            }
            comm.alltoall(blocks)
        assert ck.n_completed == 3
