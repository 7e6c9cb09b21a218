"""Shrink-and-recover: the lost-member decision, checkpointing, rollback, and the two
reproducibility properties the resilience layer guarantees:

1. an empty fault plan reproduces the unfaulted baseline *exactly*
   (clocks, trace, physics — bit for bit), and
2. a faulted run is bit-for-bit deterministic given the same plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RecoveryFailed, ResilienceError
from repro.cgyro.presets import small_test
from repro.collision.cmat import cmat_total_bytes
from repro.machine.presets import generic_cluster
from repro.perf.report import render_recovery_report
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.ledger import RecoveryLedger
from repro.resilience.recovery import RecoveryPolicy, shrink_and_recover
from repro.resilience.runner import ResilientXgyroRunner
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble


def machine4():
    return generic_cluster(n_nodes=4, ranks_per_node=4)


def run_resilient(plan, *, k=4, n_steps=5, checkpoint_interval=1, policy=None):
    world = VirtualWorld(machine4())
    runner = ResilientXgyroRunner(
        world,
        [small_test()] * k,
        plan=plan,
        checkpoint_interval=checkpoint_interval,
        policy=policy,
    )
    result = runner.run_steps(n_steps)
    return world, runner, result


class TestEmptyPlanExactness:
    def test_bit_identical_to_bare_ensemble(self):
        w_bare = VirtualWorld(machine4())
        bare = XgyroEnsemble(w_bare, [small_test()] * 4)
        for _ in range(3):
            bare.step()

        w_res, runner, result = run_resilient(FaultPlan.none(), n_steps=3)

        assert len(result.ledger) == 0
        assert np.array_equal(w_bare.clock, w_res.clock)
        assert len(w_bare.trace.events) == len(w_res.trace.events)
        for a, b in zip(w_bare.trace.events, w_res.trace.events):
            assert a == b
        for m_bare, m_res in zip(bare.members, runner.ensemble.members):
            assert np.array_equal(m_bare.gather_h(), m_res.gather_h())

    def test_no_plan_equals_empty_plan(self):
        _, _, a = run_resilient(None, n_steps=2)
        _, _, b = run_resilient(FaultPlan.none(), n_steps=2)
        assert a == b


class TestFaultedDeterminism:
    def test_same_plan_bit_for_bit(self):
        plan = FaultPlan(
            specs=(FaultSpec("node_loss", at_step=2, node=1),),
            detection_timeout_s=12.5,
        )
        wa, ra, resa = run_resilient(plan)
        wb, rb, resb = run_resilient(plan)
        assert resa == resb
        assert np.array_equal(wa.clock, wb.clock)
        assert len(wa.trace.events) == len(wb.trace.events)
        for a, b in zip(wa.trace.events, wb.trace.events):
            assert a == b
        for ma, mb in zip(ra.ensemble.members, rb.ensemble.members):
            assert np.array_equal(ma.gather_h(), mb.gather_h())
        assert ra.ledger.events == rb.ledger.events


class TestRankCrashRecovery:
    def test_shrinks_and_survivors_match_fault_free(self):
        plan = FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=2, rank=5),),
            detection_timeout_s=30.0,
        )
        _, runner, result = run_resilient(plan, n_steps=5)
        assert len(result.member_labels_initial) == 4
        assert len(result.member_labels) == 3
        assert len(result.ledger) == 1
        assert result.member_labels == (
            "xgyro.m0.small-test",
            "xgyro.m2.small-test",
            "xgyro.m3.small-test",
        )
        # survivors' physics equals a fresh fault-free 3-member run
        w_ref = VirtualWorld(machine4(), 12)
        ref = XgyroEnsemble(w_ref, [small_test()] * 3)
        for _ in range(5):
            ref.step()
        for m_rec, m_ref in zip(runner.ensemble.members, ref.members):
            assert np.array_equal(m_rec.gather_h(), m_ref.gather_h())

    def test_ledger_event_contents(self):
        plan = FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=3, rank=4),),
            detection_timeout_s=7.0,
        )
        _, runner, result = run_resilient(plan, n_steps=5)
        (event,) = runner.ledger.events
        assert event.step == 3
        assert event.rolled_back_steps == 0  # checkpointed every step
        assert event.detection_s == 7.0
        assert event.lost_work_s >= 0.0
        assert event.rebuilt_blocks > 0
        assert event.failed_ranks == (4,)
        assert event.lost_members == (1,)
        assert event.n_members_before == 4
        assert event.n_members_after == 3
        assert event.total_s == pytest.approx(
            event.detection_s + event.lost_work_s + event.reassembly_s
        )
        assert runner.ledger.recovery_overhead_s == pytest.approx(event.total_s)

    def test_checkpoint_distance_increases_rollback(self):
        plan = FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=4, rank=5),),
            detection_timeout_s=1.0,
        )
        _, runner, _ = run_resilient(plan, n_steps=6, checkpoint_interval=5)
        (event,) = runner.ledger.events
        assert event.rolled_back_steps == 4  # last checkpoint was step 0


class TestNodeLossRecovery:
    def test_shared_tensor_still_one_full_copy(self):
        plan = FaultPlan(
            specs=(FaultSpec("node_loss", at_step=2, node=2),),
            detection_timeout_s=5.0,
        )
        world, runner, result = run_resilient(plan, n_steps=4)
        assert len(result.member_labels) == 3
        ens = runner.ensemble
        dims = ens.members[0].dims
        # shard map covers nc disjointly in every toroidal group
        for i2, shards in ens.scheme.shards.items():
            ics = sorted(ic for s in shards for ic in s.ic_indices)
            assert ics == list(range(dims.nc)), f"group {i2} cover broken"
        # ledgers still hold exactly one distributed copy of the tensor
        total = sum(
            world.ledgers[r].size_of("cmat") for r in range(world.n_ranks)
        )
        assert total == cmat_total_bytes(dims)

    def test_dropped_member_buffers_freed(self):
        plan = FaultPlan(
            specs=(FaultSpec("node_loss", at_step=1, node=1),),
            detection_timeout_s=5.0,
        )
        world, runner, _ = run_resilient(plan, n_steps=3)
        # node 1 hosted ranks 4-7 == member 1; everything freed there
        for r in (4, 5, 6, 7):
            assert world.ledgers[r].in_use_bytes == 0
        # survivors gained cmat (adopted shards), kept their buffers
        for m in runner.ensemble.members:
            for r in m.ranks:
                assert world.ledgers[r].size_of("cmat") > 0

    def test_recovery_categories_charged(self):
        plan = FaultPlan(
            specs=(FaultSpec("node_loss", at_step=2, node=3),),
            detection_timeout_s=5.0,
        )
        world, _, result = run_resilient(plan, n_steps=4)
        assert "fault_detect" in world.categories()
        assert "recovery_cmat_build" in world.categories()
        assert result.ledger.detection_s == 5.0
        assert result.ledger.reassembly_s > 0.0


class TestAbortPolicy:
    def test_min_survivors_policy_aborts(self):
        plan = FaultPlan(
            specs=(FaultSpec("node_loss", at_step=1, node=0),),
            detection_timeout_s=1.0,
        )
        with pytest.raises(RecoveryFailed, match="policy minimum"):
            run_resilient(plan, policy=RecoveryPolicy(min_surviving_members=4))

    def test_max_recoveries_policy_aborts(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("rank_crash", at_step=1, rank=4),
                FaultSpec("rank_crash", at_step=3, rank=8),
            ),
            detection_timeout_s=1.0,
        )
        with pytest.raises(RecoveryFailed, match="cap"):
            run_resilient(plan, n_steps=6, policy=RecoveryPolicy(max_recoveries=1))
        # with a roomier cap the same plan survives both failures
        _, _, result = run_resilient(
            plan, n_steps=6, policy=RecoveryPolicy(max_recoveries=2)
        )
        assert len(result.member_labels) == 2
        assert len(result.ledger) == 2

    def test_losing_every_member_aborts(self):
        specs = tuple(
            FaultSpec("node_loss", at_step=1, node=n) for n in range(4)
        )
        plan = FaultPlan(specs=specs, detection_timeout_s=1.0)
        with pytest.raises(RecoveryFailed):
            run_resilient(plan)

    def test_the_event_names_the_blast_radius(self):
        # rank 6 sits in member 1 (ranks 4-7): one dead rank takes the
        # whole member, and the other three keep running
        plan = FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=2, rank=6),),
            detection_timeout_s=1.0,
        )
        _, runner, result = run_resilient(plan)
        (event,) = runner.ledger.events
        assert event.failed_ranks == (6,)
        assert event.lost_members == (1,)
        assert result.member_labels == tuple(
            f"xgyro.m{i}.small-test" for i in (0, 2, 3)
        )
        assert result.lost_member_labels == ("xgyro.m1.small-test",)

    def test_a_second_event_names_only_its_own_rank(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("rank_crash", at_step=1, rank=4),
                FaultSpec("rank_crash", at_step=3, rank=8),
            ),
            detection_timeout_s=1.0,
        )
        _, runner, _ = run_resilient(plan, n_steps=6)
        assert [e.failed_ranks for e in runner.ledger.events] == [(4,), (8,)]
        assert [e.lost_members for e in runner.ledger.events] == [(1,), (1,)]


class TestRecoveryReport:
    def test_each_figure_is_stated_once(self):
        # the faulted run-xgyro of the statement census: a repaired
        # bitflip, then a crash, under full overlap
        plan = FaultPlan(
            specs=(
                FaultSpec("bitflip", at_step=0, rank=0),
                FaultSpec("rank_crash", at_step=1, rank=1),
            ),
            detection_timeout_s=10.0,
        )
        world = VirtualWorld(machine4())
        runner = ResilientXgyroRunner(world, [small_test()] * 4, plan=plan, overlap="full")
        result = runner.run_steps(5)
        lines = render_recovery_report(result).splitlines()
        # the detection total sits in the ledger's `total` row only
        heads = [ln.split()[0] for ln in lines]
        assert heads.count("total") == 1
        assert "detection" not in heads
        # the SDC repair is the ledger's one `sdc step` line
        assert sum("sdc" in ln.lower() for ln in lines) == 1
        assert lines[0] == "resilient run — 5 steps, 4 -> 3 members, 1 recoveries"
        assert lines[2] == f"{'recovery overhead':<22s} {'100.0%':>12s} of elapsed"
        assert lines[3:] == runner.ledger.render().splitlines()


class TestCheckpointStore:
    def test_disk_round_trip(self, tmp_path):
        world = VirtualWorld(machine4())
        ens = XgyroEnsemble(world, [small_test()] * 2)
        ens.step()
        store = CheckpointStore(tmp_path)
        store.save(ens)
        assert store.step == 1
        assert sorted(tmp_path.glob("*.npz"))  # real restart files
        reference = [m.gather_h().copy() for m in ens.members]
        ens.step()
        for m in ens.members:
            store.restore_member(m)
        for m, ref in zip(ens.members, reference):
            assert np.array_equal(m.gather_h(), ref)
            assert m.step_count == 1

    def test_unknown_member_rejected(self):
        world = VirtualWorld(machine4())
        ens = XgyroEnsemble(world, [small_test()] * 2)
        store = CheckpointStore()
        store.save(ens)
        other_world = VirtualWorld(machine4())
        other = XgyroEnsemble(other_world, [small_test()] * 4)
        with pytest.raises(ResilienceError, match="no checkpoint"):
            store.restore_member(other.members[3])

    def test_recover_without_checkpoint_refused(self):
        world = VirtualWorld(machine4())
        ens = XgyroEnsemble(world, [small_test()] * 2)
        from repro.errors import RankFailure

        failure = RankFailure("x", failed_ranks=(0,))
        with pytest.raises(ResilienceError, match="without a checkpoint"):
            shrink_and_recover(ens, failure, CheckpointStore(), RecoveryLedger())


class TestUnevenShardMap:
    def test_fresh_uneven_ensemble_runs_and_matches_even(self):
        """k=3 over nc=16 (3-way coll group) exercises the uneven
        ownership path end to end against an even-split reference."""
        world = VirtualWorld(machine4(), 12)
        ens = XgyroEnsemble(world, [small_test()] * 3)
        counts = sorted(s.n_ic for s in ens.scheme.shards[0])
        assert counts == [5, 5, 6]  # nc=16 over k*P1=3 ranks, balanced
        for _ in range(2):
            ens.step()
        # all members share one input: identical physics
        h0 = ens.members[0].gather_h()
        for m in ens.members[1:]:
            assert np.array_equal(m.gather_h(), h0)
        # and identical to a fault-free even (k=4) member
        w4 = VirtualWorld(machine4())
        ens4 = XgyroEnsemble(w4, [small_test()] * 4)
        for _ in range(2):
            ens4.step()
        assert np.array_equal(ens4.members[0].gather_h(), h0)


class TestBlockingVsPipelinedCollStep:
    """The blocking coll step is the chunked routine at ``T = 1``: both
    schedules must agree bit for bit on every indexer shape."""

    @pytest.mark.parametrize("recovered", [False, True], ids=["fresh", "post-recovery"])
    def test_bit_exact_on_slice_and_list_indexers(self, recovered):
        # losing m2 hands its ic run to m0: (0..3, 8..11), non-contiguous
        specs = (FaultSpec("rank_crash", at_step=2, rank=9),) if recovered else ()
        inputs = [
            small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
            for i in range(4)
        ]
        states = {}
        for overlap in ("off", "coll"):
            runner = ResilientXgyroRunner(
                VirtualWorld(machine4()),
                inputs,
                plan=FaultPlan(specs=specs),
                overlap=overlap,
            )
            runner.run_steps(4)
            shards = [s for g in runner.ensemble.scheme.shards.values() for s in g]
            # adopted runs make a survivor's indexer an explicit list
            assert any(isinstance(s.index(), list) for s in shards) == recovered
            states[overlap] = [m.gather_h() for m in runner.ensemble.members]
        assert len(states["off"]) == (3 if recovered else 4)
        for blocking, pipelined in zip(states["off"], states["coll"]):
            assert np.array_equal(blocking, pipelined)
