"""End-to-end recovery demo at paper scale (acceptance scenario).

An 8-member ``nl03c_scaled`` ensemble on 32 Frontier-like nodes loses a
node mid-run.  The run must finish with 7 members, and the survivors'
physics after recovery must match a fault-free run of those same 7
members — the shrink-and-recover path may not perturb anyone who did
not die, even though the shrunk collision partition is uneven.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled
from repro.machine.presets import frontier_like
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.runner import ResilientXgyroRunner
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble

N_MEMBERS = 8
N_STEPS = 3
FAIL_STEP = 1
DEAD_NODE = 5  # ranks 40-47, inside member 1 (ranks 32-63)


def _machine():
    return frontier_like(
        n_nodes=32, mem_per_rank_bytes=16 * NL03C_SCALED_MEM_PER_RANK
    )


def _inputs():
    base = nl03c_scaled(steps_per_report=1, nonlinear=False)
    return [
        base.with_updates(dlntdr=(3.0 + 0.1 * m, 3.0 + 0.1 * m), name=f"m{m}")
        for m in range(N_MEMBERS)
    ]


@pytest.fixture(scope="module")
def recovered_run():
    world = VirtualWorld(_machine())
    plan = FaultPlan(
        specs=(FaultSpec("node_loss", at_step=FAIL_STEP, node=DEAD_NODE),),
        detection_timeout_s=30.0,
    )
    runner = ResilientXgyroRunner(
        world, _inputs(), plan=plan, checkpoint_interval=1
    )
    result = runner.run_steps(N_STEPS)
    return world, runner, result


class TestNl03cNodeLossDemo:
    def test_completes_with_seven_members(self, recovered_run):
        _, runner, result = recovered_run
        assert len(result.member_labels_initial) == 8
        assert len(result.member_labels) == 7
        assert len(result.ledger) == 1
        assert result.steps == N_STEPS
        # member 1 (the node's owner) is the one that went away
        assert all(".m1." not in lbl for lbl in result.member_labels)
        (event,) = runner.ledger.events
        assert event.lost_members == (1,)
        node_of = runner.world.placement.node_of
        assert {node_of(r) for r in event.failed_ranks} == {DEAD_NODE}

    def test_shrunk_partition_covers_tensor_unevenly(self, recovered_run):
        _, runner, _ = recovered_run
        dims = runner.ensemble.members[0].dims
        for i2, shards in runner.ensemble.scheme.shards.items():
            ics = sorted(ic for s in shards for ic in s.ic_indices)
            assert ics == list(range(dims.nc)), f"group {i2} cover broken"
            # k=7 survivors cannot split nc=128 evenly: adoption made
            # some ranks own more collision blocks than others
            counts = {s.n_ic for s in shards}
            assert len(counts) > 1

    def test_survivors_match_fault_free_run(self, recovered_run):
        _, runner, _ = recovered_run
        inputs = _inputs()
        survivors = [inp for i, inp in enumerate(inputs) if i != 1]
        w_ref = VirtualWorld(_machine(), 7 * 32)
        ref = XgyroEnsemble(w_ref, survivors)
        for _ in range(N_STEPS):
            ref.step()
        for m_rec, m_ref in zip(runner.ensemble.members, ref.members):
            h_rec = m_rec.gather_h()
            h_ref = m_ref.gather_h()
            assert np.all(np.isfinite(h_rec))
            assert np.allclose(h_rec, h_ref, rtol=0.0, atol=0.0)

    def test_recovery_bill_reported_in_simulated_seconds(self, recovered_run):
        _, _, result = recovered_run
        ledger = result.ledger
        assert ledger.detection_s == 30.0
        assert ledger.lost_work_s >= 0.0
        assert ledger.reassembly_s > 0.0
        assert ledger.recovery_overhead_s == pytest.approx(
            ledger.detection_s + ledger.lost_work_s + ledger.reassembly_s
        )
        assert result.elapsed_s > ledger.recovery_overhead_s
