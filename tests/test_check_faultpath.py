"""Fault path under the checker: shrink-and-recover must emit a
protocol-clean trace.

A node loss mid-run kills one member; the surviving members roll back
and rebuild on recovery communicators.  With the checker installed the
whole lifecycle — pre-fault steps, the failed collective, the rebuild,
the replayed steps — must leave the checker quiescent and the recorded
trace lintable and replayable: no orphaned in-flight collectives, no
event touching dead ranks after the shrink.
"""

from __future__ import annotations

import pytest

from repro.check.checker import CollectiveChecker
from repro.check.oracle import resilient_differential_oracle
from repro.check.tracelint import lint_trace, replay_trace
from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.runner import ResilientXgyroRunner
from repro.vmpi.world import VirtualWorld

DEAD_NODE = 2          # ranks 8-11 on the 4x4 cluster = member m2
FAIL_STEP = 1
N_STEPS = 3


@pytest.fixture(scope="module")
def faulted_run():
    machine = generic_cluster(n_nodes=4, ranks_per_node=4)
    world = VirtualWorld(machine)
    checker = CollectiveChecker()
    inputs = [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(4)
    ]
    plan = FaultPlan(
        specs=(FaultSpec(kind="node_loss", at_step=FAIL_STEP, node=DEAD_NODE),)
    )
    world.install_checker(checker)
    runner = ResilientXgyroRunner(world, inputs, plan=plan)
    result = runner.run_steps(N_STEPS)
    return world, checker, runner, result


def test_run_shrank_and_completed(faulted_run):
    _, _, _, result = faulted_run
    assert result.steps == N_STEPS
    assert result.n_members_initial == 4
    assert result.n_members_final == 3
    assert result.n_recoveries == 1
    assert result.lost_member_labels == ("xgyro.m2.m2",)


def test_checker_is_quiescent_after_recovery(faulted_run):
    _, checker, _, _ = faulted_run
    checker.assert_quiescent()  # no orphaned in-flight collectives
    assert checker.n_completed > 0
    assert checker.observed_events == len(faulted_run[0].trace)


def test_trace_lints_clean(faulted_run):
    world, _, _, _ = faulted_run
    rep = lint_trace(world.trace.events)
    assert rep.ok, rep.render()


def test_trace_replays_clean(faulted_run):
    world, _, _, _ = faulted_run
    ck = replay_trace(world.trace.events)
    assert ck.n_completed == len(world.trace.events)


def test_recovery_generation_labels_present(faulted_run):
    world, _, _, _ = faulted_run
    labels = {ev.comm_label for ev in world.trace.events}
    assert any(".r1" in label for label in labels)


def test_dead_ranks_silent_after_shrink(faulted_run):
    world, _, _, _ = faulted_run
    dead = set(range(DEAD_NODE * 4, DEAD_NODE * 4 + 4))
    events = list(world.trace.events)
    first_recovery = next(
        i for i, ev in enumerate(events) if ".r1" in ev.comm_label
    )
    for ev in events[first_recovery:]:
        assert not (set(ev.ranks) & dead), (
            f"seq {ev.seq} on {ev.comm_label!r} touches dead ranks"
        )


@pytest.mark.oracle
def test_survivors_match_undisturbed_baselines():
    machine = generic_cluster(n_nodes=4, ranks_per_node=4)
    inputs = [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(4)
    ]
    plan = FaultPlan(
        specs=(FaultSpec(kind="node_loss", at_step=FAIL_STEP, node=DEAD_NODE),)
    )
    report = resilient_differential_oracle(
        inputs, machine, plan, n_steps=N_STEPS
    )
    assert report.ok, report.render()
    assert report.mode == "resilient"
    assert report.k == 3  # the dead member is gone, survivors compared
    assert report.max_abs == 0.0  # rollback + replay is bit-exact


class TestOverlapFaultPath:
    """Nonblocking requests in flight when a rank dies: the wait must
    fail fast with the ordinary failure exception — never hang — and
    the stranded protocol state must not poison the recovery replay."""

    def test_inflight_request_dead_rank_raises_cleanly(self):
        import numpy as np

        from repro.errors import RankFailure
        from repro.resilience.injector import FaultInjector
        from repro.vmpi.communicator import Communicator

        machine = generic_cluster(n_nodes=1, ranks_per_node=4)
        world = VirtualWorld(machine)
        checker = CollectiveChecker()
        world.install_checker(checker)
        injector = FaultInjector(world, FaultPlan.none())
        world.install_fault_injector(injector)
        comm = Communicator(world, range(4), label="c")
        req = comm.iallreduce({r: np.ones(4) for r in comm.ranks})
        # the rank dies while the request is in flight
        injector.dead_ranks.add(2)
        injector.dead_nodes.add(0)
        with pytest.raises(RankFailure):
            req.wait()
        # the checker retires the request before the injector check, so
        # a wait-path failure leaves no stranded protocol state
        checker.assert_quiescent()
        # a failure at *post* time does strand checker-side state: the
        # lockstep post lands before the world rejects the collective
        with pytest.raises(RankFailure):
            comm.iallreduce({r: np.ones(4) for r in comm.ranks})
        with pytest.raises(Exception):
            checker.assert_quiescent()
        # ... which is exactly what the recovery hook clears
        checker.abandon_inflight()
        checker.assert_quiescent()

    def test_overlapped_run_recovers_from_node_loss(self):
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        world = VirtualWorld(machine)
        checker = CollectiveChecker()
        inputs = [
            small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
            for i in range(4)
        ]
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="node_loss", at_step=FAIL_STEP, node=DEAD_NODE),
            )
        )
        world.install_checker(checker)
        runner = ResilientXgyroRunner(world, inputs, plan=plan, overlap="full")
        result = runner.run_steps(N_STEPS)
        assert result.steps == N_STEPS
        assert result.n_members_final == 3
        assert result.n_recoveries == 1
        checker.assert_quiescent()
        rep = lint_trace(world.trace.events)
        assert rep.ok, rep.render()

    @pytest.mark.oracle
    def test_overlapped_survivors_match_undisturbed_baselines(self):
        """Overlap + fault injection, end to end: a request in flight
        when the node dies surfaces as a clean failure, recovery
        replays, and every survivor is still bit-exact against an
        undisturbed blocking baseline."""
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        inputs = [
            small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
            for i in range(4)
        ]
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="node_loss", at_step=FAIL_STEP, node=DEAD_NODE),
            )
        )
        report = resilient_differential_oracle(
            inputs, machine, plan, n_steps=N_STEPS, overlap="full"
        )
        assert report.ok, report.render()
        assert report.overlap == "full"
        assert report.k == 3
        assert report.max_abs == 0.0
