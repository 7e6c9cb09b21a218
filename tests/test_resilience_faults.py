"""Fault plans, the injector, and the resilience error hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    CollectiveError,
    FaultPlanError,
    LedgerError,
    MachineError,
    RankFailure,
    RecoveryFailed,
    ReproError,
    ResilienceError,
)
from repro.machine.presets import generic_cluster
from repro.machine.memory import MemoryLedger
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.injector import FaultInjector
from repro.vmpi.communicator import Communicator, allreduce_rounds
from repro.vmpi.world import VirtualWorld


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec("meteor_strike", at_step=0).validate(n_ranks=4, n_nodes=2)

    def test_negative_step_rejected(self):
        with pytest.raises(FaultPlanError, match="at_step"):
            FaultSpec("rank_crash", at_step=-1, rank=0).validate(
                n_ranks=4, n_nodes=2
            )

    def test_rank_out_of_range(self):
        with pytest.raises(FaultPlanError, match="rank 7"):
            FaultSpec("rank_crash", at_step=0, rank=7).validate(
                n_ranks=4, n_nodes=2
            )

    def test_node_out_of_range(self):
        with pytest.raises(FaultPlanError, match="node 9"):
            FaultSpec("node_loss", at_step=0, node=9).validate(
                n_ranks=4, n_nodes=2
            )

    def test_slowdown_factor_below_one(self):
        with pytest.raises(FaultPlanError, match="factor"):
            FaultSpec("link_slowdown", at_step=0, factor=0.5).validate(
                n_ranks=4, n_nodes=2
            )

    def test_negative_detection_timeout(self):
        with pytest.raises(FaultPlanError, match="detection_timeout_s"):
            FaultPlan(specs=(), detection_timeout_s=-1.0)


class TestFaultPlanSerialisation:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec("rank_crash", at_step=3, rank=5),
                FaultSpec("node_loss", at_step=7, node=1, phase="coll_comm"),
                FaultSpec("link_slowdown", at_step=0, factor=2.5),
            ),
            detection_timeout_s=12.5,
            seed=42,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        plan.to_file(path)
        assert FaultPlan.from_file(path) == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_from_json_rejects_non_object(self):
        with pytest.raises(FaultPlanError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_from_json_rejects_bad_spec(self):
        with pytest.raises(FaultPlanError, match=r"specs\[0\]: missing key\(s\) \['at_step'\]"):
            FaultPlan.from_json('{"specs": [{"kind": "rank_crash"}]}')

    def test_from_json_rejects_unknown_fields(self):
        doc = '{"specs": [{"kind": "rank_crash", "at_step": 1, "blast": 9}]}'
        with pytest.raises(FaultPlanError, match=r"specs\[0\]: .*unknown key\(s\) \['blast'\]"):
            FaultPlan.from_json(doc)

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("rank_crash", at_step=3, rank=5),
            FaultSpec("node_loss", at_step=7, node=1, phase="coll_comm"),
            FaultSpec("link_slowdown", at_step=0, factor=2.5),
            FaultSpec("slowdown", at_step=2, rank=4, factor=3.5),
            FaultSpec("bitflip", at_step=5, rank=0),
            FaultSpec("service_crash", at_step=0, at_s=120.0, duration_s=30.0),
            FaultSpec("provision_fail", at_step=0, at_s=60.0, duration_s=15.0),
            FaultSpec("domain_loss", at_step=0, node=2, at_s=200.0, duration_s=90.0),
        ],
        ids=lambda s: s.kind,
    )
    def test_every_kind_round_trips(self, spec):
        """All eight fault kinds — data and control plane — survive
        the JSON round trip with every field intact."""
        plan = FaultPlan(specs=(spec,), detection_timeout_s=5.0, seed=3)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.specs[0].at_s == spec.at_s
        assert again.specs[0].duration_s == spec.duration_s


class TestFaultInjector:
    def _world(self):
        return VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4))

    def test_plan_validated_against_world(self):
        world = self._world()
        plan = FaultPlan(specs=(FaultSpec("rank_crash", at_step=0, rank=99),))
        with pytest.raises(FaultPlanError):
            FaultInjector(world, plan)

    def test_healthy_collectives_unchanged(self):
        world = self._world()
        world.install_fault_injector(FaultInjector(world, FaultPlan.none()))
        ref = VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4))
        for w in (world, ref):
            comm = w.comm_world()
            comm.allreduce({r: np.ones(8) for r in comm.ranks})
        assert np.array_equal(world.clock, ref.clock)

    def test_rank_crash_raises_typed_failure(self):
        world = self._world()
        plan = FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=2, rank=3),),
            detection_timeout_s=5.0,
        )
        inj = FaultInjector(world, plan)
        world.install_fault_injector(inj)
        comm = world.comm_world()
        values = {r: np.ones(2) for r in comm.ranks}
        inj.begin_step(1)  # not armed yet
        comm.allreduce(values)
        inj.begin_step(2)
        with pytest.raises(RankFailure) as excinfo:
            comm.allreduce(values)
        err = excinfo.value
        assert err.failed_ranks == (3,)
        assert err.step == 2
        assert err.detection_timeout_s == 5.0
        assert err.kind == "allreduce"
        # the survivors paid the timeout; the dead rank's clock froze
        live = [r for r in range(8) if r != 3]
        assert all(world.clock[r] >= 5.0 for r in live)
        assert world.category_time("fault_detect", live, reduce="mean") == 5.0

    def test_node_loss_kills_every_rank_on_node(self):
        world = self._world()
        plan = FaultPlan(specs=(FaultSpec("node_loss", at_step=0, node=1),))
        inj = FaultInjector(world, plan)
        world.install_fault_injector(inj)
        with pytest.raises(RankFailure) as excinfo:
            world.comm_world().allreduce({r: np.ones(2) for r in range(8)})
        assert excinfo.value.failed_ranks == (4, 5, 6, 7)

    def test_a_later_failure_names_only_the_ranks_it_found(self):
        # rank 1 dies first and stays dead; the failure that finds rank
        # 6 must not name rank 1 again, or every reader downstream books
        # the first crash twice
        world = self._world()
        plan = FaultPlan(
            specs=(
                FaultSpec("rank_crash", at_step=0, rank=1),
                FaultSpec("rank_crash", at_step=1, rank=6),
            )
        )
        inj = FaultInjector(world, plan)
        world.install_fault_injector(inj)
        with pytest.raises(RankFailure) as first:
            world.comm_world().allreduce({r: np.ones(2) for r in range(8)})
        inj.begin_step(1)
        rest = [r for r in range(8) if r != 1]
        with pytest.raises(RankFailure) as second:
            Communicator(world, rest, label="rest").allreduce(
                {r: np.ones(2) for r in rest}
            )
        assert first.value.failed_ranks == (1,)
        assert second.value.failed_ranks == (6,)
        assert inj.dead_ranks == {1, 6}

    def test_link_slowdown_scales_cost(self):
        def run(plan):
            world = self._world()
            if plan is not None:
                world.install_fault_injector(FaultInjector(world, plan))
            comm = world.comm_world()
            comm.allreduce({r: np.ones(1024) for r in comm.ranks})
            return world.elapsed()

        base = run(None)
        slowed = run(
            FaultPlan(specs=(FaultSpec("link_slowdown", at_step=0, factor=3.0),))
        )
        assert slowed == pytest.approx(3.0 * base)

    def test_phase_gate_limits_slowdown(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "link_slowdown", at_step=0, factor=4.0, phase="coll_comm"
                ),
            )
        )
        world = self._world()
        world.install_fault_injector(FaultInjector(world, plan))
        ref = VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4))
        values = {r: np.ones(2) for r in range(8)}
        for w, cat in ((world, "str_comm"), (ref, "str_comm")):
            comm = w.comm_world()
            with w.phase(cat):
                comm.allreduce(values)
        assert world.elapsed() == ref.elapsed()  # wrong phase: no effect
        with world.phase("coll_comm"):
            world.comm_world().allreduce(values)
        with ref.phase("coll_comm"):
            ref.comm_world().allreduce(values)
        assert world.elapsed() > ref.elapsed()

    def test_pair_detects_dead_peer(self):
        world = self._world()
        plan = FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=0, rank=1),),
            detection_timeout_s=2.0,
        )
        world.install_fault_injector(FaultInjector(world, plan))
        pair = Communicator(world, [0, 1], label="pair")
        with pytest.raises(RankFailure) as excinfo:
            pair.allreduce({0: np.ones(4), 1: np.ones(4)})
        assert excinfo.value.failed_ranks == (1,)


class TestErrorHierarchy:
    def test_resilience_branch(self):
        assert issubclass(ResilienceError, ReproError)
        for exc in (FaultPlanError, RankFailure, RecoveryFailed):
            assert issubclass(exc, ResilienceError)

    def test_rank_failure_normalises_attrs(self):
        err = RankFailure("boom", failed_ranks=(5, 2))
        assert err.failed_ranks == (2, 5)

    def test_ledger_error_is_machine_and_value_error(self):
        assert issubclass(LedgerError, MachineError)
        assert issubclass(LedgerError, ValueError)
        ledger = MemoryLedger()
        ledger.alloc("x", 8)
        with pytest.raises(LedgerError):
            ledger.alloc("x", 8)

    def test_empty_reduce_is_collective_error(self):
        with pytest.raises(CollectiveError):
            allreduce_rounds([], np.ones((1, 1, 1)), [])
