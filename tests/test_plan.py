"""Tests for the repro.plan autotuner subsystem.

Covers the artifact (byte-stable JSON, round-trips, validation), the
heterogeneity-aware predictor (pinned against the analytic model on
homogeneous machines), the seeded annealer and planner determinism
(hypothesis: same seed, byte-identical plan), plan validation by
really running the choice, physics-neutrality of tuned (unbalanced)
configurations, and the campaign integration — plan-shaped jobs out of
:class:`~repro.campaign.packer.CampaignPacker` and tuned dispatch
through :class:`~repro.campaign.runner.CampaignRunner`.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.campaign.batcher import SignatureBatcher
from repro.campaign.packer import CampaignPacker
from repro.campaign.request import RequestQueue, SimRequest
from repro.campaign.runner import CampaignRunner
from repro.cgyro.presets import small_test
from repro.grid.decomp import Decomposition
from repro.machine.presets import (
    generic_cluster,
    mixed_generation_cluster,
    throttled_frontier,
)
from repro.perf.analytic import predict_xgyro_interval
from repro.plan.anneal import anneal
from repro.plan.artifact import Plan, PlanChoice, load_plan
from repro.plan.planner import (
    Planner,
    member_inputs,
    oracle_plan,
    render_plan_report,
    run_choice,
    validate_plan,
)
from repro.plan.predict import predict_plan_interval
from repro.plan.space import (
    ALGORITHM_PAIRS,
    enumerate_candidates,
    feasible_geometries,
    node_subsets,
)
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble
from repro.xgyro.partition import ensemble_nc_counts, proportional_nc_counts


@pytest.fixture
def base():
    return small_test()


@pytest.fixture
def hetero():
    """4 nodes x 4 ranks, the trailing 2 nodes old (slow + weak NIC)."""
    return mixed_generation_cluster(4, ranks_per_node=4)


@pytest.fixture
def homogeneous():
    return generic_cluster(n_nodes=4, ranks_per_node=4)


def _choice(machine, inp, k, *, n_nodes=None, **kw):
    """A feasible default-algorithm choice for tests."""
    n_nodes = machine.n_nodes if n_nodes is None else n_nodes
    n_ranks = n_nodes * machine.ranks_per_node
    decomp = Decomposition.choose(inp.grid_dims(), n_ranks // k)
    return PlanChoice(
        k=k,
        n_nodes=n_nodes,
        nodes=tuple(range(n_nodes)),
        ranks_per_member=decomp.n_proc,
        **kw,
    )


# ----------------------------------------------------------------------
# artifact
# ----------------------------------------------------------------------
class TestPlanArtifact:
    def test_choice_validation(self):
        with pytest.raises(PlanError):
            PlanChoice(k=0, n_nodes=1, nodes=(0,), ranks_per_member=1)
        with pytest.raises(PlanError):
            PlanChoice(k=1, n_nodes=2, nodes=(0,), ranks_per_member=1)
        with pytest.raises(PlanError):
            PlanChoice(k=1, n_nodes=2, nodes=(0, 0), ranks_per_member=1)

    def test_is_unbalanced(self):
        c = PlanChoice(k=1, n_nodes=1, nodes=(0,), ranks_per_member=2,
                       nc_counts=(8, 8))
        assert not c.is_unbalanced
        c = replace(c, nc_counts=(9, 7))
        assert c.is_unbalanced
        # off-by-one from integer division is still "balanced"
        c = replace(c, nc_counts=(9, 8))
        assert not c.is_unbalanced

    def test_plan_round_trip_and_byte_stability(self, tmp_path):
        choice = PlanChoice(
            k=2, n_nodes=2, nodes=(1, 0), ranks_per_member=4,
            allreduce="recursive-doubling", alltoall="bruck",
            nc_counts=(5, 5, 3, 3),
        )
        plan = Plan(
            machine_name="m", input_name="i", signature_key="sig",
            n_members=5, steps_per_report=5, choice=choice,
            predicted_s=1.25, default_predicted_s=1.5,
            predicted_breakdown={"str_comm": 0.5, "coll_comm": 0.75},
            seed=7, method="exhaustive+anneal", n_evaluated=42,
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        clone = load_plan(path)
        assert clone == plan
        assert clone.to_json() == plan.to_json()
        # rounds: ceil(5 / 2)
        assert plan.rounds == 3
        assert plan.predicted_speedup == pytest.approx(1.2)
        # a negative seed is no seed the planner emits: the loader refuses it
        doc = json.loads(path.read_text())
        doc["seed"] = -1
        path.write_text(json.dumps(doc))
        with pytest.raises(PlanError, match="seed must be >= 0, got -1"):
            load_plan(path)

    def test_format_tag_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(PlanError, match="repro-plan-v1"):
            load_plan(path)
        with pytest.raises(PlanError, match="not found"):
            load_plan(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# predictor
# ----------------------------------------------------------------------
class TestPredictor:
    def test_matches_analytic_on_homogeneous(self, base, homogeneous):
        """On a homogeneous machine with the default algorithms and a
        balanced split the plan predictor must agree with the calibrated
        analytic model — same collective counts, same flop formulas."""
        for k in (1, 2, 4):
            choice = _choice(homogeneous, base, k)
            pred = predict_plan_interval(base, homogeneous, choice)
            analytic = predict_xgyro_interval(
                k, base, homogeneous, choice.n_ranks
            )
            assert pred.makespan == pytest.approx(analytic.total, rel=1e-12)

    def test_slow_nodes_predict_longer(self, base):
        fast = generic_cluster(4, ranks_per_node=4)
        slow = replace(fast, node_speed=(1.0, 1.0, 0.5, 0.5))
        choice_f = _choice(fast, base, 2)
        choice_s = _choice(slow, base, 2)
        assert (
            predict_plan_interval(base, slow, choice_s).makespan
            > predict_plan_interval(base, fast, choice_f).makespan
        )

    def test_unbalanced_split_helps_on_hetero(self, base, hetero):
        """Giving the slow coll ranks smaller shards must reduce the
        predicted collision-compute phase on the mixed machine."""
        choice = _choice(hetero, base, 2)
        decomp = Decomposition.choose(
            base.grid_dims(), choice.ranks_per_member
        )
        group = 2 * decomp.n_proc_1
        balanced = predict_plan_interval(base, hetero, choice)
        weights = [2.0] * (group // 2) + [1.0] * (group // 2)
        counts = proportional_nc_counts(decomp, 2, weights)
        tuned = predict_plan_interval(
            base, hetero, replace(choice, nc_counts=tuple(counts))
        )
        assert tuned.categories["coll_compute"] < balanced.categories[
            "coll_compute"
        ]

    def test_unknown_algorithm_rejected(self, base, homogeneous):
        choice = _choice(homogeneous, base, 2, allreduce="telepathy")
        with pytest.raises(PlanError, match="telepathy"):
            predict_plan_interval(base, homogeneous, choice)


# ----------------------------------------------------------------------
# search space
# ----------------------------------------------------------------------
class TestSearchSpace:
    def test_algorithm_pairs_defaults_first(self):
        assert ALGORITHM_PAIRS[0] == ("ring", "pairwise")
        assert len(ALGORITHM_PAIRS) == 6

    def test_feasible_geometries_respect_memory(self, base):
        tight = replace(
            generic_cluster(4, ranks_per_node=4),
            mem_per_rank_bytes=1.0,  # nothing fits
        )
        assert feasible_geometries(tight, base, 1) == []

    def test_node_subsets_fastest_first(self, base, hetero):
        subsets = node_subsets(hetero, 2)
        # default (packer) prefix first, then the fastest nodes
        assert subsets[0] == (0, 1)
        for s in subsets:
            assert len(s) == 2
            assert len(set(s)) == 2

    def test_enumeration_nonempty_and_feasible(self, base, hetero):
        cands = list(enumerate_candidates(hetero, base, 4))
        assert cands
        planner = Planner(hetero, base, 4)
        assert any(planner.evaluate(c) is not None for c in cands)


# ----------------------------------------------------------------------
# annealer determinism
# ----------------------------------------------------------------------
class TestAnneal:
    def _setup(self, base, hetero):
        planner = Planner(hetero, base, 4)
        start = planner.default_choice()
        decomp = Decomposition.choose(
            base.grid_dims(), start.ranks_per_member
        )
        return planner, start, decomp

    def test_same_seed_same_trajectory(self, base, hetero):
        planner, start, decomp = self._setup(base, hetero)
        kw = dict(
            machine=hetero,
            available_nodes=list(range(hetero.n_nodes)),
            group=start.k * decomp.n_proc_1,
            nc=base.grid_dims().nc,
            max_count_cap=base.grid_dims().nc,
            iterations=60,
        )
        a = anneal(start, planner.evaluate, seed=11, **kw)
        b = anneal(start, planner.evaluate, seed=11, **kw)
        assert a.best == b.best
        assert a.best_energy == b.best_energy
        assert a.n_evaluated == b.n_evaluated

    def test_never_worse_than_start(self, base, hetero):
        planner, start, decomp = self._setup(base, hetero)
        result = anneal(
            start,
            planner.evaluate,
            seed=3,
            machine=hetero,
            available_nodes=list(range(hetero.n_nodes)),
            group=start.k * decomp.n_proc_1,
            nc=base.grid_dims().nc,
            max_count_cap=base.grid_dims().nc,
            iterations=60,
        )
        assert result.best_energy <= planner.evaluate(start)


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_rejects_bad_member_count(self, base, hetero):
        with pytest.raises(PlanError):
            Planner(hetero, base, 0)
        with pytest.raises(PlanError):
            member_inputs(base, 0)

    def test_member_inputs_share_signature(self, base):
        members = member_inputs(base, 4)
        sig = base.cmat_signature()
        assert all(m.cmat_signature() == sig for m in members)
        assert len({m.name for m in members}) == 4

    def test_beats_default_on_heterogeneous(self, base, hetero):
        planner = Planner(hetero, base, 8)
        plan = planner.plan(seed=0)
        assert plan.predicted_s < plan.default_predicted_s
        assert plan.predicted_speedup > 1.0
        assert plan.n_evaluated > 0

    def test_never_worse_than_default(self, base, homogeneous):
        # on a homogeneous machine there may be nothing to win, but the
        # planner must never ship a regression
        plan = Planner(homogeneous, base, 4).plan(seed=0)
        assert plan.predicted_s <= plan.default_predicted_s

    def test_plan_validates_with_small_error(self, base, hetero):
        planner = Planner(hetero, base, 4)
        plan = planner.plan(seed=0)
        val = validate_plan(plan, base, hetero)
        assert val.actual_s > 0
        assert abs(val.error_frac) < 0.25

    def test_tuned_beats_default_really_run(self, base, hetero):
        planner = Planner(hetero, base, 8)
        plan = planner.plan(seed=0)
        tuned = run_choice(base, hetero, plan.choice)
        default = run_choice(base, hetero, planner.default_choice())
        assert tuned < default

    def test_report_renders(self, base, hetero):
        planner = Planner(hetero, base, 4)
        plan = planner.plan(seed=0)
        val = validate_plan(plan, base, hetero)
        text = render_plan_report(plan, val, default_actual_s=1.0)
        assert "choice: k=" in text
        assert "validated" in text

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_plan_json_byte_stable_across_reruns(self, seed):
        """Satellite 2: explicit seed all the way through the annealer —
        two fresh planners with the same seed emit byte-identical plan
        JSON (no global RNG, no wall-clock anywhere in the path)."""
        machine = mixed_generation_cluster(2, ranks_per_node=2)
        inp = small_test()
        first = Planner(machine, inp, 3).plan(seed=seed)
        second = Planner(machine, inp, 3).plan(seed=seed)
        assert first.to_json() == second.to_json()


# ----------------------------------------------------------------------
# physics neutrality
# ----------------------------------------------------------------------
class TestPhysicsNeutral:
    def test_uneven_split_is_bit_exact(self, base, homogeneous):
        """The nc split maps shards to ranks; it must not change a
        single bit of the evolved state or diagnostics."""
        inputs = member_inputs(base, 2)
        world_a = VirtualWorld(homogeneous)
        ens_a = XgyroEnsemble(world_a, inputs)
        # derive an unbalanced variant of the balanced counts
        decomp = Decomposition.choose(
            base.grid_dims(), len(ens_a.members[0].ranks)
        )
        counts = list(ensemble_nc_counts(decomp, 2))
        counts[0] += 1
        donor = next(i for i, c in enumerate(counts[1:], 1) if c > 1)
        counts[donor] -= 1
        world_b = VirtualWorld(homogeneous)
        ens_b = XgyroEnsemble(world_b, inputs, nc_counts=counts)
        ra = ens_a.run_report_interval()
        rb = ens_b.run_report_interval()
        for ma, mb in zip(ens_a.members, ens_b.members):
            flux_a, phi2_a = ma.diagnostics()
            flux_b, phi2_b = mb.diagnostics()
            assert list(flux_a) == list(flux_b)
            assert list(phi2_a) == list(phi2_b)
        assert ra.ensemble.step == rb.ensemble.step

    def test_oracle_bit_exact_on_tuned_plan(self, base, hetero):
        planner = Planner(hetero, base, 4)
        plan = planner.plan(seed=0)
        report = oracle_plan(plan, base, hetero)
        assert report.rtol == 0.0 and report.atol == 0.0
        assert report.ok
        assert report.max_abs == 0.0


# ----------------------------------------------------------------------
# campaign integration
# ----------------------------------------------------------------------
def _sweep_requests(base, n):
    return [
        SimRequest(
            request_id=f"r{i}",
            input=base.with_updates(
                name=f"sweep{i}",
                dlntdr=tuple(v + 0.02 * i for v in base.dlntdr),
            ),
            arrival_s=float(i),
        )
        for i in range(n)
    ]


class TestCampaignIntegration:
    def test_packer_emits_plan_shaped_jobs(self, base, hetero):
        plan = Planner(hetero, base, 4).plan(seed=0)
        packer = CampaignPacker(hetero, plan=plan)
        batches = SignatureBatcher().batch(_sweep_requests(base, 4))
        waves = packer.pack(batches)
        jobs = [j for wave in waves for j in wave]
        tuned = [j for j in jobs if j.tuning is not None]
        assert tuned, "no plan-shaped job emitted"
        job = tuned[0]
        assert job.tuning == plan.choice
        assert job.nodes == plan.choice.nodes
        assert job.shape.k == plan.choice.k
        assert job.shape.ranks_per_member == plan.choice.ranks_per_member

    def test_signature_mismatch_falls_back(self, base, hetero):
        plan = Planner(hetero, base, 4).plan(seed=0)
        stale = replace(plan, signature_key="deadbeef")
        packer = CampaignPacker(hetero, plan=stale)
        waves = packer.pack(SignatureBatcher().batch(_sweep_requests(base, 4)))
        assert all(j.tuning is None for wave in waves for j in wave)

    def test_stale_plan_nodes_fall_back(self, base, hetero):
        plan = Planner(hetero, base, 4).plan(seed=0)
        off_machine = replace(
            plan,
            choice=replace(
                plan.choice,
                nodes=tuple(n + 100 for n in plan.choice.nodes),
            ),
        )
        packer = CampaignPacker(hetero, plan=off_machine)
        waves = packer.pack(SignatureBatcher().batch(_sweep_requests(base, 4)))
        jobs = [j for wave in waves for j in wave]
        assert jobs
        assert all(j.tuning is None for j in jobs)

    def test_sub_k_tail_takes_default_path(self, base, hetero):
        plan = Planner(hetero, base, 4).plan(seed=0)
        k = plan.choice.k
        packer = CampaignPacker(hetero, plan=plan)
        waves = packer.pack(
            SignatureBatcher().batch(_sweep_requests(base, k + 1))
        )
        jobs = [j for wave in waves for j in wave]
        assert sum(1 for j in jobs if j.tuning is not None) == 1
        assert sum(1 for j in jobs if j.tuning is None) >= 1

    def test_no_plan_packing_unchanged(self, base, hetero):
        """plan=None must reproduce the historical packing exactly."""
        batches = SignatureBatcher().batch(_sweep_requests(base, 6))
        before = CampaignPacker(hetero).pack(batches)
        after = CampaignPacker(hetero, plan=None).pack(batches)
        assert before == after

    def test_uneven_nc_plan_through_campaign_end_to_end(self, base, hetero):
        """Satellite 3: an unbalanced CollShard split driven through
        CampaignPacker and really dispatched by CampaignRunner."""
        planner = Planner(hetero, base, 8)
        plan = planner.plan(seed=0)
        # force an uneven split even if the search picked a balanced one
        choice = plan.choice
        if choice.nc_counts is None or not choice.is_unbalanced:
            decomp = Decomposition.choose(
                base.grid_dims(), choice.ranks_per_member
            )
            counts = list(ensemble_nc_counts(decomp, choice.k))
            counts[0] += 1
            counts[-1] -= 1
            assert min(counts) >= 1
            choice = replace(choice, nc_counts=tuple(counts))
            plan = replace(plan, choice=choice)
        assert plan.choice.is_unbalanced
        packer = CampaignPacker(hetero, plan=plan)
        runner = CampaignRunner(hetero, packer=packer)
        queue = RequestQueue(_sweep_requests(base, plan.choice.k))
        report = runner.run(queue)
        assert report.n_completed == plan.choice.k
        assert not report.abandoned
        assert all(j.n_recoveries == 0 for j in report.jobs)
        tuned_jobs = [j for j in report.jobs if j.k == plan.choice.k]
        assert tuned_jobs and tuned_jobs[0].nodes == plan.choice.nodes

    def test_tuned_campaign_not_slower(self, base, hetero):
        """The whole point: a planned campaign on the heterogeneous
        machine finishes no later than the untuned one."""
        plan = Planner(hetero, base, 8).plan(seed=0)
        untuned = CampaignRunner(hetero).run(
            RequestQueue(_sweep_requests(base, 8))
        )
        tuned = CampaignRunner(
            hetero, packer=CampaignPacker(hetero, plan=plan)
        ).run(RequestQueue(_sweep_requests(base, 8)))
        assert tuned.makespan_s <= untuned.makespan_s * (1 + 1e-9)
        assert tuned.n_completed == untuned.n_completed == 8
