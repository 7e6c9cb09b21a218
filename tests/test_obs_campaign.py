"""Campaign-level telemetry: job spans at campaign-absolute times, wave
records, imposed-wait and quarantine accounting on the report."""

from __future__ import annotations

import pytest

from repro.campaign.request import RequestQueue, SimRequest
from repro.campaign.runner import CampaignRunner
from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.obs import Telemetry
from repro.obs.critical import extract_critical_path
from repro.perf.report import render_campaign_report
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.health import NodeHealthTracker, RetryPolicy


@pytest.fixture
def machine():
    return generic_cluster(n_nodes=4, ranks_per_node=4)


def _queue(n=4, families=2):
    base = small_test()
    reqs = []
    for i in range(n):
        fam = i % families
        reqs.append(
            SimRequest(
                request_id=f"r{i}",
                input=base.with_updates(nu=base.nu * (1 + fam), name=f"r{i}"),
            )
        )
    return RequestQueue(reqs)


class TestCampaignSpans:
    def test_critical_path_spans_campaign_makespan(self, machine):
        tele = Telemetry()
        report = CampaignRunner(machine, telemetry=tele).run(
            _queue(), steps=1
        )
        path = extract_critical_path(tele.tracer.spans)
        assert path.makespan == pytest.approx(report.makespan_s)

    def test_cache_metrics_and_memory_gauges(self, machine):
        tele = Telemetry()
        CampaignRunner(machine, telemetry=tele).run(_queue(), steps=1)
        reg = tele.metrics
        hits = reg.counter_total("campaign_cache_hits_total")
        misses = reg.counter_total("campaign_cache_misses_total")
        assert hits + misses > 0
        hwms = [
            (key, value)
            for name, key, mtype, value in reg
            if name == "memory_high_water_bytes"
        ]
        assert hwms and all(v > 0 for _, v in hwms)


class TestReportExtensions:
    def test_wave_timeline_recorded(self, machine):
        report = CampaignRunner(machine).run(_queue(), steps=1)
        assert report.waves
        for w in report.waves:
            assert w.end_s >= w.start_s
            assert w.n_jobs > 0
            assert 0 < w.nodes_busy <= machine.n_nodes
        # waves tile the campaign: the last one ends at the makespan
        assert report.waves[-1].end_s == pytest.approx(report.makespan_s)
        d = report.to_dict()
        assert d["waves"][0]["n_jobs"] == report.waves[0].n_jobs

    def test_imposed_wait_sums_straggler_stalls(self, machine):
        slow = FaultPlan(
            specs=(FaultSpec("slowdown", at_step=1, rank=1, factor=4.0),),
            detection_timeout_s=0.0,
        )
        plain = CampaignRunner(machine).run(_queue(), steps=2)
        faulted = CampaignRunner(machine, node_faults={0: slow}).run(
            _queue(), steps=2
        )
        assert plain.imposed_wait_s == 0.0
        assert faulted.imposed_wait_s > 0.0

    def test_quarantine_windows_cover_to_campaign_end(self, machine):
        crash = FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=1, rank=1),),
            detection_timeout_s=5.0,
        )
        report = CampaignRunner(
            machine,
            node_faults={0: crash},
            retry=RetryPolicy(max_attempts=5, base_backoff_s=1.0),
            health=NodeHealthTracker(quarantine_threshold=2),
        ).run(_queue(), steps=2)
        assert report.quarantined_nodes == (0,)
        (win,) = report.quarantine_windows
        assert win["node"] == 0
        assert 0.0 <= win["start_s"] <= win["end_s"]
        assert win["end_s"] == pytest.approx(report.makespan_s)

    def test_render_includes_new_sections(self, machine):
        report = CampaignRunner(machine).run(_queue(), steps=1)
        text = render_campaign_report(report)
        assert "wave" in text and "nodes busy" in text  # wave timeline
        # the imposed-wait line appears once there is wait to report
        slow = FaultPlan(
            specs=(FaultSpec("slowdown", at_step=1, rank=1, factor=4.0),),
            detection_timeout_s=0.0,
        )
        faulted = CampaignRunner(machine, node_faults={0: slow}).run(
            _queue(), steps=2
        )
        assert "imposed straggler wait" in render_campaign_report(faulted)
