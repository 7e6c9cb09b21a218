"""Resilience-event spans: checkpoints, recoveries, migrations."""

from __future__ import annotations

import pytest

from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.obs import Telemetry
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.runner import ResilientXgyroRunner
from repro.vmpi.world import VirtualWorld


def _inputs(k=4):
    return [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(k)
    ]


@pytest.fixture
def machine():
    return generic_cluster(n_nodes=4, ranks_per_node=4)


def test_checkpoint_spans_and_counters(machine):
    world = VirtualWorld(machine)
    tele = Telemetry()
    tele.install(world)
    runner = ResilientXgyroRunner(
        world, _inputs(), plan=FaultPlan.none(), checkpoint_interval=1
    )
    runner.run_steps(3)
    ckpts = [s for s in tele.tracer.spans if s.kind == "checkpoint"]
    assert len(ckpts) == 3  # step 0 + the interior cadence boundaries
    assert tele.metrics.counter_total("resilience_checkpoints_total") == 3
    assert tele.metrics.counter_total("resilience_recoveries_total") == 0


def test_recovery_span_on_node_loss(machine):
    world = VirtualWorld(machine)
    tele = Telemetry()
    plan = FaultPlan(
        specs=(FaultSpec("node_loss", at_step=1, node=1),),
        detection_timeout_s=5.0,
    )
    tele.install(world)
    runner = ResilientXgyroRunner(
        world, _inputs(), plan=plan, checkpoint_interval=1
    )
    result = runner.run_steps(3)
    assert len(result.ledger) == 1
    recov = [s for s in tele.tracer.spans if s.kind == "recovery"]
    assert len(recov) == 1
    assert recov[0].duration > 0.0
    assert tele.metrics.counter_total("resilience_recoveries_total") == 1


def test_migration_span_on_straggler(machine):
    world = VirtualWorld(machine)
    tele = Telemetry()
    plan = FaultPlan(
        specs=(FaultSpec("slowdown", at_step=1, rank=1, factor=8.0),),
        detection_timeout_s=0.0,
    )
    tele.install(world)
    runner = ResilientXgyroRunner(
        world, _inputs(), plan=plan, checkpoint_interval=1,
        migrate_stragglers=True,
    )
    result = runner.run_steps(4)
    assert len(result.ledger.migrations) >= 1
    mig = [s for s in tele.tracer.spans if s.kind == "migration"]
    assert len(mig) == len(result.ledger.migrations)
    assert all(s.attrs["state_bytes"] > 0 for s in mig)
    assert tele.metrics.counter_total(
        "resilience_migrations_total"
    ) == len(result.ledger.migrations)
