"""End-to-end online-service loop behaviour."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import ServiceError
from repro.campaign.request import SimRequest
from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.machine.model import KiB
from repro.obs import Telemetry
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.health import RetryPolicy
from repro.service.loop import OnlineService
from repro.service.report import ServiceReport, render_service_report
from repro.service.traffic import PoissonTraffic, TenantSpec, replay
from repro.service.window import WindowPolicy

WORKLOAD = [small_test(), small_test(nu=0.2)]
TENANTS = (
    TenantSpec("alice", weight=2.0, slo_s=400.0),
    TenantSpec("bob", weight=1.0, slo_s=600.0),
)


def _service(machine=None, traffic=None, **kwargs):
    machine = machine or generic_cluster(n_nodes=8)
    traffic = traffic or PoissonTraffic(
        WORKLOAD, rate_per_s=0.05, tenants=TENANTS, seed=7
    )
    defaults = dict(
        window=WindowPolicy(max_hold_s=60.0, min_batch=3),
        min_nodes=1,
        max_nodes=8,
        provision_delay_s=30.0,
        idle_reclaim_s=120.0,
    )
    defaults.update(kwargs)
    return OnlineService(machine, traffic, **defaults)


class TestServiceBasics:
    def test_everything_offered_is_accounted_for(self):
        report = _service().run(600.0)
        assert report.offered > 0
        assert report.n_served + report.n_shed + report.n_abandoned == (
            report.offered
        )
        assert report.n_shed == 0 and report.n_abandoned == 0
        # completions strictly follow arrivals and dispatches
        for rec in report.served:
            assert rec.arrival_s <= rec.start_s <= rec.finish_s
        assert report.slo_attainment == 1.0
        assert report.p50_ttr_s <= report.p99_ttr_s

    def test_same_seed_rerun_is_byte_stable(self):
        d1 = json.dumps(_service().run(600.0).to_dict(), sort_keys=True)
        d2 = json.dumps(_service().run(600.0).to_dict(), sort_keys=True)
        assert d1 == d2

    def test_render_smoke(self):
        text = render_service_report(_service().run(600.0))
        assert "SLO attainment" in text and "alice" in text

    def test_windowed_batching_shares_jobs(self):
        report = _service(
            traffic=PoissonTraffic([small_test()], rate_per_s=0.2, seed=1),
            window=WindowPolicy(max_hold_s=120.0, min_batch=4),
        ).run(400.0)
        assert report.mean_k > 1.0

    def test_fifo_baseline_never_batches(self):
        report = _service(
            traffic=PoissonTraffic([small_test()], rate_per_s=0.2, seed=1),
            window=WindowPolicy(max_hold_s=0.0, min_batch=1, max_batch=1),
            prefer_larger_k=False,
        ).run(400.0)
        assert report.n_served > 0
        assert all(j.k == 1 for j in report.jobs)


class TestAdmissionAndBackpressure:
    def test_overload_sheds_with_records(self):
        report = _service(
            traffic=PoissonTraffic(WORKLOAD, rate_per_s=1.0, seed=3),
            max_pending=4,
            max_nodes=2,
            window=WindowPolicy(max_hold_s=30.0, min_batch=4),
        ).run(120.0)
        assert report.n_shed > 0
        assert report.shed_rate == report.n_shed / report.offered
        for rec in report.rejections:
            assert rec.pending >= 4
        assert report.n_served + report.n_shed == report.offered


class TestElasticPool:
    def test_pool_grows_under_load_and_reclaims_idle(self):
        # memory-tight machine: even one member's cmat needs more than
        # one node's ranks, so the single-node floor must grow
        tight = replace(
            generic_cluster(n_nodes=8), mem_per_rank_bytes=float(96 * KiB)
        )
        stream = [
            SimRequest(request_id=f"r{i}", input=small_test(),
                       arrival_s=0.0)
            for i in range(3)
        ]
        report = _service(
            machine=tight,
            traffic=replay(stream),
            window=WindowPolicy(max_hold_s=5.0, min_batch=3),
            min_nodes=1,
            max_nodes=8,
            provision_delay_s=10.0,
            idle_reclaim_s=60.0,
        ).run(40.0)
        assert report.n_served == 3
        assert report.peak_pool_nodes > 1  # grew beyond the floor
        assert report.pool_timeline[-1]["provisioned"] == 1  # drained back
        # elasticity saves cost versus holding the whole machine
        assert report.pool_node_seconds < 8 * report.duration_s

    def test_fixed_pool_is_the_degenerate_case(self):
        report = _service(
            min_nodes=8, max_nodes=8, provision_delay_s=0.0,
            idle_reclaim_s=float("inf"),
        ).run(300.0)
        sizes = {s["provisioned"] for s in report.pool_timeline}
        assert sizes == {8}
        assert report.pool_node_seconds == pytest.approx(
            8 * report.duration_s
        )


class TestDeadlinesAndTenants:
    def test_impossible_deadline_is_a_recorded_slo_miss(self):
        stream = [
            SimRequest(request_id="hopeless", input=small_test(),
                       arrival_s=0.0, deadline_s=1e-6),
            SimRequest(request_id="fine", input=small_test(),
                       arrival_s=0.0, deadline_s=1e6),
        ]
        report = _service(
            traffic=replay(stream),
            window=WindowPolicy(max_hold_s=5.0, min_batch=2),
        ).run(50.0)
        assert report.n_served == 2
        assert report.slo_attainment == 0.5
        missed = {r.request_id: r.slo_met for r in report.served}
        assert missed == {"hopeless": False, "fine": True}
        # goodput only counts in-SLO steps
        assert report.goodput_member_steps_per_s < (
            report.throughput_member_steps_per_s
        )

    def test_tenants_are_charged_and_reported(self):
        report = _service().run(600.0)
        summary = report.tenant_summary()
        assert set(summary) == {"alice", "bob"}
        assert sum(int(v["served"]) for v in summary.values()) == (
            report.n_served
        )
        total = sum(report.tenant_node_seconds.values())
        assert total == pytest.approx(report.busy_node_seconds)


class TestFaultsAndRetries:
    def test_lost_members_retry_and_complete(self):
        plan = FaultPlan(specs=(FaultSpec("rank_crash", at_step=2, rank=1),))
        report = _service(
            traffic=PoissonTraffic([small_test()], rate_per_s=0.1, seed=2),
            window=WindowPolicy(max_hold_s=10.0, min_batch=2),
            node_faults={0: plan},
            retry=RetryPolicy(max_attempts=4, base_backoff_s=10.0),
        ).run(300.0)
        assert report.n_served + report.n_abandoned == report.offered
        assert report.n_served > 0
        # at least one request needed more than one dispatch
        assert any(r.attempts > 1 for r in report.served) or report.abandoned

    def test_retry_cap_dead_letters(self):
        # the only node is poisonous: the request can never complete
        plan = FaultPlan(specs=(FaultSpec("rank_crash", at_step=1, rank=0),))
        report = _service(
            traffic=replay([
                SimRequest(request_id="doomed", input=small_test(),
                           arrival_s=0.0)
            ]),
            window=WindowPolicy(max_hold_s=1.0, min_batch=1),
            min_nodes=1,
            max_nodes=1,
            node_faults={0: plan},
            retry=RetryPolicy(max_attempts=2, base_backoff_s=5.0),
        ).run(10.0)
        assert report.n_served == 0
        assert [a.request_id for a in report.abandoned] == ["doomed"]
        assert report.abandoned[0].attempts == 2

    def test_infeasible_request_raises(self):
        starved = replace(
            generic_cluster(n_nodes=2), mem_per_rank_bytes=float(KiB)
        )
        service = OnlineService(
            starved,
            replay([
                SimRequest(request_id="big", input=small_test(),
                           arrival_s=0.0)
            ]),
            window=WindowPolicy(max_hold_s=1.0, min_batch=1),
        )
        with pytest.raises(ServiceError):
            service.run(10.0)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_jobs_of_no_steps_are_refused(self, steps):
        """A zero-step job would report its requests served."""
        with pytest.raises(ServiceError, match=f"steps must be >= 1, got {steps}"):
            _service(steps=steps)


class TestTelemetry:
    def test_spans_and_metrics_cover_the_run(self):
        tele = Telemetry()
        report = _service(telemetry=tele).run(600.0)
        kinds = {s.kind for s in tele.tracer.spans}
        assert "service" in kinds and "job" in kinds
        root = [s for s in tele.tracer.spans if s.kind == "service"]
        assert len(root) == 1
        assert root[0].t_start == 0.0
        assert root[0].duration == pytest.approx(report.duration_s)
        metrics = tele.metrics
        assert metrics.counter_total("service_arrivals_total") == (
            report.offered
        )
        assert metrics.counter_total("service_completions_total") == (
            report.n_served
        )
        assert metrics.counter_total("service_dispatch_total") == len(
            report.jobs
        )
        hist = metrics.histogram("service_ttr_seconds")
        assert hist.count == report.n_served


class TestEmptyServiceRender:
    def test_empty_service_quantiles_render_na_not_nan(self):
        report = ServiceReport(
            machine_name="generic-cluster-8n",
            machine_n_nodes=8,
            horizon_s=100.0,
            duration_s=0.0,
            offered=0,
        )
        assert report.p50_ttr_s != report.p50_ttr_s  # NaN in memory
        text = render_service_report(report)
        assert "n/a" in text
        assert "nan" not in text
        # and the JSON side serialises the same NaN as null
        d = report.to_dict()
        assert d["p50_ttr_s"] is None and d["p99_ttr_s"] is None
