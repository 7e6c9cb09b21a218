"""Degraded-mode economics: what do gray failures cost, and what do
the responses buy back?

Three questions, one per test, all priced on the simulated clock:

- **quarantine + backoff vs naive always-retry** — a campaign with one
  chronically bad node (every dispatch placed on it loses a rank).
  The naive service retries each lost request immediately and without
  limit (here: a generous cap so the run terminates), paying the full
  detection-timeout + lost-work cycle on every futile landing.  The
  health-tracked service pays that cycle twice, trips the circuit
  breaker, and serves every remaining attempt from healthy nodes — a
  shorter makespan *and* no dead-lettered requests.
- **SDC scan overhead** — the per-shard checksum sweep of the shared
  tensor at every checkpoint boundary is priced at memory-bandwidth
  cost.  It must stay under 1% of the modeled step time, or the guard
  would cost more than the corruption it catches.
- **slowdown changes time, never physics** — a straggling rank slows
  every collective it participates in (the virtual clocks stall at
  the rendezvous), but the arithmetic is untouched: final state is
  bit-identical to the fault-free run, and speculative migration at a
  checkpoint boundary claws back most of the stall.

Default scale is the paper's nl03c scenario on a Frontier-like
machine; ``--smoke`` shrinks to the small-test grid on a 4-node
cluster for CI.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_degraded_mode.py -s
    PYTHONPATH=src python -m pytest benchmarks/bench_degraded_mode.py -s --smoke
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignRunner, RequestQueue, SimRequest
from repro.cgyro.presets import (
    NL03C_SCALED_MEM_PER_RANK,
    nl03c_scaled,
    small_test,
)
from repro.machine import frontier_like, generic_cluster
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    NodeHealthTracker,
    ResilientXgyroRunner,
    RetryPolicy,
)
from repro.vmpi import VirtualWorld


@pytest.fixture(scope="module")
def scenario(smoke):
    """(campaign_machine, ensemble_machine, inputs, steps).

    The campaign machine carries spare nodes (36, not the headline
    32): quarantining a node must leave a machine the nl03c job still
    fits on, or the comparison is moot.  The single-ensemble tests run
    on the exact 32-node machine of the headline benchmark.
    """
    if smoke:
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        inputs = [
            small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
            for i in range(4)
        ]
        return machine, machine, inputs, 4
    campaign_machine = frontier_like(
        n_nodes=36, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK
    )
    ensemble_machine = frontier_like(
        n_nodes=32, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK
    )
    base = nl03c_scaled()
    inputs = [
        base.with_updates(
            name=f"nl03c.m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i)
        )
        for i in range(4)
    ]
    return campaign_machine, ensemble_machine, inputs, 4


def _queue(inputs):
    q = RequestQueue()
    for i, inp in enumerate(inputs):
        q.submit(SimRequest(request_id=f"r{i}", input=inp))
    return q


def test_quarantine_and_backoff_beat_naive_retry(scenario, bench_json):
    """A repeated-fault node: circuit breaker vs always-retry."""
    machine, _, inputs, steps = scenario
    flaky = FaultPlan(
        specs=(FaultSpec("rank_crash", at_step=2, rank=1),),
        detection_timeout_s=30.0,
    )

    tracked = CampaignRunner(
        machine,
        node_faults={0: flaky},
        retry=RetryPolicy(max_attempts=5, base_backoff_s=10.0),
        health=NodeHealthTracker(quarantine_threshold=2),
    ).run(_queue(inputs), steps=steps)

    naive = CampaignRunner(
        machine,
        node_faults={0: flaky},
        # "always retry": immediate, unjittered requeue with a cap
        # generous enough that the run terminates measurably
        retry=RetryPolicy(max_attempts=8, base_backoff_s=0.0, jitter=0.0),
        health=NodeHealthTracker(quarantine_threshold=None),
    ).run(_queue(inputs), steps=steps)

    print("\nrepeated-fault node: quarantine+backoff vs naive always-retry")
    print(
        f"{'policy':<22s} {'makespan_s':>11s} {'jobs':>5s} {'done':>5s} "
        f"{'abandoned':>9s} {'quarantined':>12s}"
    )
    for name, rep in (("quarantine+backoff", tracked), ("naive retry", naive)):
        print(
            f"{name:<22s} {rep.makespan_s:>11.1f} {rep.n_jobs:>5d} "
            f"{rep.n_completed:>5d} {rep.n_abandoned:>9d} "
            f"{str(list(rep.quarantined_nodes)):>12s}"
        )

    bench_json.record(
        "degraded_mode",
        tracked_makespan_s=tracked.makespan_s,
        naive_makespan_s=naive.makespan_s,
    )
    assert tracked.quarantined_nodes == (0,)
    assert tracked.n_completed == len(inputs)
    assert tracked.n_abandoned == 0
    # the naive service keeps landing retries on the bad node until the
    # cap dead-letters them — slower AND lossier
    assert naive.n_abandoned >= 1
    assert tracked.makespan_s < naive.makespan_s


def test_sdc_scan_overhead_under_one_percent(scenario, bench_json):
    """Checkpoint-boundary checksum sweeps must be ~free."""
    _, machine, inputs, steps = scenario
    world = VirtualWorld(machine)
    runner = ResilientXgyroRunner(
        world,
        inputs,
        plan=FaultPlan.none(),
        checkpoint_interval=1,
        guard_sdc=True,
    )
    result = runner.run_steps(steps)
    scan_s = world.category_time("sdc_scan", reduce="max")
    share = scan_s / result.elapsed_s
    print(
        f"\nSDC guard: {scan_s * 1e3:.3f} ms of scans over "
        f"{result.elapsed_s:.3f} s ({steps} steps, scan every step) "
        f"= {share:.3%} of modeled time"
    )
    bench_json.record("degraded_mode", sdc_scan_share=share)
    assert len(result.ledger.sdc_events) == 0  # healthy run: scans only, no heals
    assert share < 0.01


def test_slowdown_changes_time_not_physics(scenario, bench_json):
    """Straggler stalls collectives; arithmetic is untouched."""
    _, machine, inputs, steps = scenario
    plan = FaultPlan(
        specs=(FaultSpec("slowdown", at_step=1, rank=1, factor=8.0),),
        detection_timeout_s=0.0,
    )

    def run(migrate):
        world = VirtualWorld(machine)
        runner = ResilientXgyroRunner(
            world,
            inputs,
            plan=plan,
            checkpoint_interval=1,
            migrate_stragglers=migrate,
        )
        result = runner.run_steps(steps)
        state = [m.gather_h().copy() for m in runner.ensemble.members]
        return result, state

    clean_world = VirtualWorld(machine)
    clean = ResilientXgyroRunner(
        clean_world, inputs, plan=FaultPlan.none(), checkpoint_interval=1
    )
    clean_result = clean.run_steps(steps)
    clean_state = [m.gather_h().copy() for m in clean.ensemble.members]

    stalled, stalled_state = run(migrate=False)
    migrated, migrated_state = run(migrate=True)

    print("\nslowdown x8 on one rank: elapsed_s (physics identical in all)")
    print(
        f"{'fault-free':<22s} {clean_result.elapsed_s:>11.4f}\n"
        f"{'stalled (no response)':<22s} {stalled.elapsed_s:>11.4f}\n"
        f"{'migrated at checkpoint':<22s} {migrated.elapsed_s:>11.4f} "
        f"({len(migrated.ledger.migrations)} migration(s), "
        f"{migrated.ledger.migration_s:.4f} s transfer)"
    )

    bench_json.record(
        "degraded_mode",
        clean_elapsed_s=clean_result.elapsed_s,
        stalled_elapsed_s=stalled.elapsed_s,
        migrated_elapsed_s=migrated.elapsed_s,
    )
    for a, b, c in zip(clean_state, stalled_state, migrated_state):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
    assert stalled.elapsed_s > clean_result.elapsed_s
    assert len(migrated.ledger.migrations) >= 1
    assert migrated.elapsed_s < stalled.elapsed_s
