"""Recovery overhead: what does a mid-run failure cost a shared ensemble?

Sharing one collisional tensor couples the members' fates: a node loss
kills one member outright *and* takes its shards of everyone's cmat
with it.  This benchmark prices that coupling, sweeping failure time x
ensemble size and splitting the bill the way the recovery ledger does:

- **detection** — the timeout survivors burn discovering the death;
- **lost work** — simulated time since the last checkpoint, replayed;
- **re-assembly** — recomputing only the dead ranks' shards.

The no-sharing baseline for comparison: with private cmats the members
are independent jobs, so a node loss costs the dead member its own
lost work and *nothing else* — no detection stall, no rollback, no
re-assembly on the survivors.  The price of sharing on failure is
exactly the table below; its mitigation is that re-assembly touches
only the lost fraction of the tensor (survivor shards are kept), which
the ``tensor%`` column shows directly.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_recovery_overhead.py -s
"""

from __future__ import annotations

import numpy as np

from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled, small_test
from repro.machine import frontier_like, generic_cluster
from repro.resilience import FaultPlan, FaultSpec, ResilientXgyroRunner
from repro.vmpi import VirtualWorld
from repro.xgyro import XgyroEnsemble


def _faulted_run(machine, inputs, *, fail_step, n_steps, node, timeout=30.0):
    world = VirtualWorld(machine)
    plan = FaultPlan(
        specs=(FaultSpec("node_loss", at_step=fail_step, node=node),),
        detection_timeout_s=timeout,
    )
    runner = ResilientXgyroRunner(world, inputs, plan=plan, checkpoint_interval=1)
    result = runner.run_steps(n_steps)
    return runner, result


def _fault_free_elapsed(machine, inputs, n_steps):
    world = VirtualWorld(machine)
    ens = XgyroEnsemble(world, inputs)
    for _ in range(n_steps):
        ens.step()
    return world.elapsed(ens.ranks)


def test_recovery_cost_sweep_failure_time_and_k():
    """Sweep failure step x k on a small ensemble; print the ledger."""
    inp = small_test()
    n_steps = 5
    header = (
        f"{'k':>3s} {'fail@':>6s} {'detect_s':>9s} {'lost_work_s':>12s} "
        f"{'reassembly_s':>13s} {'total_s':>9s} {'tensor%':>8s} "
        f"{'faulted_s':>10s} {'clean_s':>9s}"
    )
    print("\nrecovery overhead, node loss, checkpoint every step")
    print(header)
    dims = inp.grid_dims()
    total_blocks = dims.nc * dims.nt
    for k in (4, 8):
        machine = generic_cluster(n_nodes=k, ranks_per_node=4)
        inputs = [inp] * k
        clean = _fault_free_elapsed(
            generic_cluster(n_nodes=k, ranks_per_node=4), inputs, n_steps
        )
        for fail_step in (1, 3):
            runner, result = _faulted_run(
                machine, inputs, fail_step=fail_step, n_steps=n_steps, node=1
            )
            ledger = result.ledger
            assert len(result.member_labels) == k - 1
            assert len(ledger) == 1
            event = ledger.events[0]
            frac = event.rebuilt_blocks / total_blocks
            print(
                f"{k:>3d} {fail_step:>6d} {ledger.detection_s:>9.3f} "
                f"{ledger.lost_work_s:>12.6f} {ledger.reassembly_s:>13.6f} "
                f"{ledger.recovery_overhead_s:>9.3f} {frac:>8.1%} "
                f"{result.elapsed_s:>10.3f} {clean:>9.6f}"
            )
            # survivors keep their shards: the rebuild touches only the
            # removed ranks' fraction of the tensor, not all of it
            assert 0 < event.rebuilt_blocks < total_blocks
            assert ledger.detection_s > 0.0
            assert ledger.reassembly_s > 0.0
            # detection dominates at these scales, as on real machines
            assert ledger.detection_s > ledger.reassembly_s


def test_recovery_scales_with_checkpoint_distance():
    """Lost work grows with the failure's distance from the checkpoint."""
    inp = small_test()
    machine = generic_cluster(n_nodes=4, ranks_per_node=4)
    lost = []
    for fail_step in (1, 4):
        world = VirtualWorld(machine)
        plan = FaultPlan(
            specs=(FaultSpec("node_loss", at_step=fail_step, node=1),),
            detection_timeout_s=30.0,
        )
        runner = ResilientXgyroRunner(
            world, [inp] * 4, plan=plan, checkpoint_interval=5
        )
        result = runner.run_steps(6)
        lost.append(result.ledger.lost_work_s)
    print(f"\nlost work: fail@1 -> {lost[0]:.6f} s, fail@4 -> {lost[1]:.6f} s")
    assert lost[1] > lost[0]


def test_recovery_overhead_headline_nl03c(bench_json):
    """The paper-scale scenario: 8 nl03c members on 32 Frontier-like
    nodes, one node dies mid-run; report the full recovery bill."""
    base = nl03c_scaled(steps_per_report=1, nonlinear=False)
    inputs = [
        base.with_updates(dlntdr=(3.0 + 0.1 * m, 3.0 + 0.1 * m), name=f"m{m}")
        for m in range(8)
    ]
    machine = frontier_like(
        n_nodes=32, mem_per_rank_bytes=16 * NL03C_SCALED_MEM_PER_RANK
    )
    runner, result = _faulted_run(
        machine, inputs, fail_step=2, n_steps=3, node=5, timeout=30.0
    )
    assert len(result.member_labels_initial) == 8
    assert len(result.member_labels) == 7
    ledger = result.ledger
    event = ledger.events[0]
    dims = inputs[0].grid_dims()
    frac = event.rebuilt_blocks / (dims.nc * dims.nt)
    print(
        f"\nnl03c 8->7 members, node loss at step 2:\n"
        f"  detection  {ledger.detection_s:10.3f} s\n"
        f"  lost work  {ledger.lost_work_s:10.3f} s\n"
        f"  reassembly {ledger.reassembly_s:10.6f} s "
        f"({event.rebuilt_blocks} blocks, {frac:.1%} of the tensor)\n"
        f"  total      {ledger.recovery_overhead_s:10.3f} s over "
        f"{result.elapsed_s:.3f} s elapsed"
    )
    bench_json.record(
        "recovery_overhead",
        detection_s=ledger.detection_s,
        lost_work_s=ledger.lost_work_s,
        reassembly_s=ledger.reassembly_s,
        recovery_overhead_s=ledger.recovery_overhead_s,
    )
    # the shrunk (k=7) partition covers nc=128 unevenly but completely
    for shards in runner.ensemble.scheme.shards.values():
        ics = sorted(ic for s in shards for ic in s.ic_indices)
        assert ics == list(range(dims.nc))
    # survivor physics intact after recovery: finite, nonzero state
    h = runner.ensemble.members[0].gather_h()
    assert np.all(np.isfinite(h)) and np.any(h != 0)
