"""Degraded-mode fault classes end to end: slowdown and bitflip.

The two gray-failure kinds never raise a clean
:class:`~repro.errors.RankFailure` on their own; the runner has to
*notice* them.  The contracts under test:

- ``slowdown`` changes only simulated time, never physics — the
  straggling rank's clock runs ahead, every collective stalls on it,
  and the straggler detector reads the imposed waits; speculative
  migration at a checkpoint boundary claws the stall back;
- ``bitflip`` corrupts a shard of the shared tensor in place; the
  checkpoint-boundary checksum scan detects it, repairs *only* that
  shard, rolls back to the last clean checkpoint, and the replayed run
  is bit-identical to a fault-free one — corruption is never reported
  out;
- faults cascading into a recovery (a second spec firing during the
  replay) triage cleanly with no double-counting and a lintable trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.checker import CollectiveChecker
from repro.check.oracle import resilient_differential_oracle
from repro.check.tracelint import lint_trace, replay_trace
from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.runner import ResilientXgyroRunner
from repro.vmpi.world import VirtualWorld

N_STEPS = 4


def _machine():
    return generic_cluster(n_nodes=4, ranks_per_node=4)


def _inputs(k=4):
    return [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(k)
    ]


def _run(plan, *, n_steps=N_STEPS, **kw):
    world = VirtualWorld(_machine())
    runner = ResilientXgyroRunner(
        world, _inputs(), plan=plan, checkpoint_interval=1, **kw
    )
    result = runner.run_steps(n_steps)
    states = [m.gather_h().copy() for m in runner.ensemble.members]
    return world, runner, result, states


@pytest.fixture(scope="module")
def clean_run():
    return _run(FaultPlan.none())


class TestSlowdown:
    def test_physics_identical_time_dilated(self, clean_run):
        _, _, clean_result, clean_states = clean_run
        plan = FaultPlan(
            specs=(FaultSpec("slowdown", at_step=1, rank=5, factor=4.0),),
            detection_timeout_s=0.0,
        )
        _, _, result, states = _run(plan, migrate_stragglers=False)
        for a, b in zip(clean_states, states):
            assert np.array_equal(a, b)
        assert result.elapsed_s > clean_result.elapsed_s
        assert result.n_recoveries == 0

    def test_node_targeted_slowdown(self, clean_run):
        _, _, clean_result, clean_states = clean_run
        plan = FaultPlan(
            specs=(FaultSpec("slowdown", at_step=0, node=1, factor=3.0),),
            detection_timeout_s=0.0,
        )
        _, _, result, states = _run(plan, migrate_stragglers=False)
        for a, b in zip(clean_states, states):
            assert np.array_equal(a, b)
        assert result.elapsed_s > clean_result.elapsed_s

    def test_wait_accounting_identifies_the_straggler(self):
        plan = FaultPlan(
            specs=(FaultSpec("slowdown", at_step=0, rank=5, factor=8.0),),
            detection_timeout_s=0.0,
        )
        world, _, _, _ = _run(plan, migrate_stragglers=False)
        # the straggler arrives last everywhere: tiny own wait, huge
        # imposed wait; its peers show the mirror image
        assert int(np.argmax(world.imposed_wait_s)) == 5
        assert world.coll_wait_s[5] < world.imposed_wait_s[5]

    def test_empty_plan_has_zero_wait_effect_on_multiplier(self):
        world = VirtualWorld(_machine())
        runner = ResilientXgyroRunner(
            world, _inputs(), plan=FaultPlan.none(), checkpoint_interval=1
        )
        assert runner.injector.compute_multiplier(0) == 1.0
        assert not runner.injector.has_slowdowns
        assert runner.guard_sdc is False  # no bitflip specs: no scans
        assert runner.straggler_detector is None


class TestMigration:
    def test_migration_recovers_stall_and_keeps_physics(self, clean_run):
        _, _, _, clean_states = clean_run
        plan = FaultPlan(
            specs=(FaultSpec("slowdown", at_step=1, rank=5, factor=8.0),),
            detection_timeout_s=0.0,
        )
        _, _, stalled, _ = _run(plan, migrate_stragglers=False)
        _, runner, migrated, states = _run(plan, migrate_stragglers=True)
        assert migrated.n_migrations >= 1
        assert migrated.migration_s > 0.0
        assert migrated.elapsed_s < stalled.elapsed_s
        for a, b in zip(clean_states, states):
            assert np.array_equal(a, b)
        ev = runner.ledger.migrations[0]
        assert ev.rank == 5
        assert ev.state_bytes > 0
        # migration exempts only the member's own ranks
        member = runner.ensemble.members[ev.member]
        assert ev.rank in member.ranks
        assert runner.injector.compute_multiplier(ev.rank) == 1.0


class TestBitflip:
    def test_detected_repaired_and_bit_identical(self, clean_run):
        _, _, _, clean_states = clean_run
        plan = FaultPlan(
            specs=(FaultSpec("bitflip", at_step=2, rank=5),),
            detection_timeout_s=0.0,
        )
        _, runner, result, states = _run(plan)
        assert result.n_sdc_repairs == 1
        assert result.sdc_s > 0.0
        assert result.n_recoveries == 0  # gray event, not a crash
        for a, b in zip(clean_states, states):
            assert np.array_equal(a, b)
        ev = runner.ledger.sdc_events[0]
        assert ev.ranks == (5,)
        assert ev.rebuilt_blocks > 0
        assert ev.rolled_back_steps >= 1
        # post-repair the shard checksums all verify again
        assert runner.ensemble.scheme.verify_shards() == ()

    def test_scan_runs_but_stays_quiet_without_corruption(self):
        world, runner, result, _ = _run(FaultPlan.none(), guard_sdc=True)
        assert result.n_sdc_repairs == 0
        assert world.category_time("sdc_scan", reduce="max") > 0.0
        assert world.category_time("sdc_repair", reduce="max") == 0.0

    def test_flip_fires_once_despite_rollback_replay(self):
        # the rollback replays the armed step; a re-fired flip would
        # re-corrupt forever and the run would never converge
        plan = FaultPlan(
            specs=(FaultSpec("bitflip", at_step=1, rank=5),),
            detection_timeout_s=0.0,
        )
        _, runner, result, _ = _run(plan)
        assert result.n_sdc_repairs == 1
        assert result.steps == N_STEPS

    def test_ledger_render_mentions_sdc(self):
        plan = FaultPlan(
            specs=(FaultSpec("bitflip", at_step=2, rank=5),),
            detection_timeout_s=0.0,
        )
        _, runner, _, _ = _run(plan)
        text = runner.ledger.render()
        assert "sdc" in text
        totals = runner.ledger.totals()
        assert totals["sdc_s"] > 0.0
        assert len(runner.ledger) == 0  # crash count unpolluted


class TestCascades:
    """Satellite: a second fault during recovery triages cleanly."""

    def test_crash_during_replay_of_first_recovery(self):
        machine = _machine()
        world = VirtualWorld(machine)
        checker = CollectiveChecker()
        # node 2 dies in the streaming phase; while the survivors
        # replay the rolled-back step, rank 1 dies in the collision
        # phase — a cascade firing mid-recovery-replay
        plan = FaultPlan(
            specs=(
                FaultSpec("node_loss", at_step=1, node=2),
                FaultSpec("rank_crash", at_step=1, rank=1, phase="coll_comm"),
            ),
            detection_timeout_s=5.0,
        )
        world.install_checker(checker)
        runner = ResilientXgyroRunner(
            world, _inputs(), plan=plan, checkpoint_interval=1
        )
        result = runner.run_steps(N_STEPS)
        assert result.n_recoveries == 2
        assert result.n_members_final == 2
        assert set(result.lost_member_labels) == {
            "xgyro.m0.m0",
            "xgyro.m2.m2",
        }
        # no double-count: each event lost exactly one member
        assert [len(e.lost_members) for e in runner.ledger.events] == [1, 1]
        checker.assert_quiescent()
        rep = lint_trace(world.trace.events)
        assert rep.ok, rep.render()
        ck = replay_trace(world.trace.events)
        assert ck.n_completed == len(world.trace.events)

    def test_bitflip_after_crash_recovery(self, clean_run):
        # crash at step 1, flip at step 2: the crash recovery must not
        # eat the flip, and the SDC heal must not re-trigger triage
        plan = FaultPlan(
            specs=(
                FaultSpec("node_loss", at_step=1, node=2),
                FaultSpec("bitflip", at_step=2, rank=5),
            ),
            detection_timeout_s=5.0,
        )
        world, runner, result, states = _run(plan)
        assert result.n_recoveries == 1
        assert result.n_sdc_repairs == 1
        assert len(runner.ledger.events) == 1
        assert len(runner.ledger.sdc_events) == 1
        assert result.n_members_final == 3
        rep = lint_trace(world.trace.events)
        assert rep.ok, rep.render()
        # survivors bit-match their fault-free trajectories
        report = resilient_differential_oracle(
            _inputs(), _machine(), plan, n_steps=N_STEPS
        )
        assert report.ok, report.render()
        assert report.max_abs == 0.0


# ----------------------------------------------------------------------
# oracle lane: gray faults at nl03c scale, k=4
# ----------------------------------------------------------------------
@pytest.mark.oracle
@pytest.mark.parametrize(
    "spec",
    [
        FaultSpec("slowdown", at_step=1, rank=5, factor=4.0),
        FaultSpec("bitflip", at_step=1, rank=5),
    ],
    ids=["slowdown", "bitflip"],
)
def test_nl03c_k4_bit_exact_under_gray_fault(spec):
    """Member-mode differential oracle at nl03c scale: each gray fault
    kind leaves surviving physics exactly zero-delta."""
    from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled
    from repro.machine.presets import frontier_like

    k = 4
    base = nl03c_scaled(steps_per_report=1, nonlinear=False)
    inputs = [
        base.with_updates(
            name=f"nl03c.m{m}", dlntdr=(3.0 + 0.1 * m, 3.0 + 0.1 * m)
        )
        for m in range(k)
    ]
    machine = frontier_like(
        n_nodes=4 * k, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK
    )
    plan = FaultPlan(specs=(spec,), detection_timeout_s=0.0)
    report = resilient_differential_oracle(
        inputs, machine, plan, n_steps=2
    )
    assert report.ok, report.render()
    assert report.k == k  # gray faults kill nobody
    assert report.max_abs == 0.0


# ----------------------------------------------------------------------
# property: a single bitflip is ALWAYS detected before results are
# reported, and never changes reported physics
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def reference_states(clean_run):
    return clean_run[3]


@settings(max_examples=12, deadline=None)
@given(rank=st.integers(0, 15), at_step=st.integers(0, N_STEPS - 1))
def test_any_single_bitflip_is_detected_before_reporting(
    reference_states, rank, at_step
):
    plan = FaultPlan(
        specs=(FaultSpec("bitflip", at_step=at_step, rank=rank),),
        detection_timeout_s=0.0,
    )
    world, runner, result, states = _run(plan)
    if runner.ensemble.scheme.shard_nbytes(rank) > 0:
        # the flip landed in real shard data: it must have been caught
        # (and healed) before run_steps returned
        assert result.n_sdc_repairs == 1
    else:
        assert result.n_sdc_repairs == 0  # nothing to corrupt
    assert runner.ensemble.scheme.verify_shards() == ()
    for a, b in zip(reference_states, states):
        assert np.array_equal(a, b)
