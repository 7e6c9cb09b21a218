"""Campaign-level robustness: cache integrity, bounded retry, quarantine."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign.cache import CmatCache
from repro.campaign.packer import CampaignPacker
from repro.campaign.request import RequestQueue, SimRequest
from repro.campaign.runner import CampaignRunner
from repro.cgyro.presets import small_test
from repro.machine.model import KiB
from repro.machine.presets import generic_cluster
from repro.perf.report import render_campaign_report
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.health import NodeHealthTracker, RetryPolicy

FLAKY = FaultPlan(
    specs=(FaultSpec("rank_crash", at_step=2, rank=1),),
    detection_timeout_s=5.0,
)


def _machine(n_nodes=4):
    return generic_cluster(n_nodes=n_nodes, ranks_per_node=4)


def _queue(n=4):
    q = RequestQueue()
    for i in range(n):
        q.submit(
            SimRequest(
                request_id=f"r{i}",
                input=small_test(
                    name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i)
                ),
            )
        )
    return q


class TestCacheIntegrity:
    def test_corrupted_entry_is_miss_evict_and_counted(self):
        cache = CmatCache()
        sig = small_test().cmat_signature()
        cache.insert(sig, 1024, 2.0)
        assert cache.lookup(sig) is not None
        (entry,) = cache._entries.values()
        entry.nbytes ^= 1  # a bit-flip in the resident record; checksum stale
        assert cache.lookup(sig) is None  # served nothing corrupted
        stats = cache.stats()
        assert stats["integrity_failures"] == 1
        assert stats["evictions"] == 1
        assert stats["entries"] == 0
        # re-insert works and verifies clean again
        cache.insert(sig, 1024, 2.0)
        assert cache.lookup(sig) is not None

    def test_stats_at_zero_lookups(self):
        stats = CmatCache().stats()
        assert stats["hit_rate"] == 0.0
        assert stats["hits"] == 0 and stats["misses"] == 0
        # the documented key set, exactly
        assert set(stats) == {
            "entries",
            "in_use_bytes",
            "hits",
            "misses",
            "evictions",
            "integrity_failures",
            "hit_rate",
            "seconds_saved",
        }


class TestBoundedRetry:
    def test_abandoned_after_attempt_cap(self):
        # every node is flaky: retries can never succeed, so the
        # policy must dead-letter instead of looping to max_rounds
        runner = CampaignRunner(
            _machine(),
            node_faults={n: FLAKY for n in range(4)},
            retry=RetryPolicy(max_attempts=2, base_backoff_s=1.0),
            health=NodeHealthTracker(quarantine_threshold=None),
        )
        report = runner.run(_queue(4), steps=4)
        assert report.n_abandoned >= 1
        rec = report.abandoned[0]
        assert rec.attempts == 2
        assert "max_attempts=2" in rec.reason
        assert report.to_dict()["n_abandoned"] == report.n_abandoned
        text = render_campaign_report(report)
        assert "abandoned" in text

    def test_backoff_delays_the_retry_dispatch(self):
        retry = RetryPolicy(max_attempts=3, base_backoff_s=50.0, jitter=0.0)
        runner = CampaignRunner(
            _machine(),
            node_faults={0: FLAKY},
            retry=retry,
            health=NodeHealthTracker(quarantine_threshold=2),
        )
        report = runner.run(_queue(4), steps=4)
        first = report.jobs[0]
        retry_jobs = [j for j in report.jobs[1:] if j.k == 1]
        assert retry_jobs
        assert retry_jobs[0].start_s >= first.start_s + first.elapsed_s + 50.0

    def test_legacy_unbounded_requeue_with_retry_none(self):
        # a one-shot per-job fault plan: the retry dispatch is clean,
        # so retry=None still terminates and completes everything
        runner = CampaignRunner(
            _machine(),
            fault_plans={0: FLAKY},
            retry=None,
        )
        report = runner.run(_queue(4), steps=4)
        assert report.n_completed == 4
        assert report.n_abandoned == 0
        assert report.n_requeued == 1

    def test_completed_attempts_counted_across_retries(self):
        runner = CampaignRunner(
            _machine(),
            node_faults={0: FLAKY},
            retry=RetryPolicy(max_attempts=5, base_backoff_s=1.0),
            health=NodeHealthTracker(quarantine_threshold=2),
        )
        report = runner.run(_queue(4), steps=4)
        assert report.n_completed == 4
        attempts = {r.request_id: r.attempts for r in report.requests}
        assert max(attempts.values()) >= 2  # the flaky-node victim retried


class TestQuarantine:
    def test_flaky_node_is_quarantined_and_excluded(self):
        runner = CampaignRunner(
            _machine(),
            node_faults={0: FLAKY},
            retry=RetryPolicy(max_attempts=5, base_backoff_s=1.0),
            health=NodeHealthTracker(quarantine_threshold=2),
        )
        report = runner.run(_queue(4), steps=4)
        assert report.quarantined_nodes == (0,)
        assert report.n_completed == 4
        # the incident ledger rode along in the report
        assert report.health["incident_counts"] == {"0": 2}
        assert report.health["quarantined"] == [0]
        # jobs dispatched after the quarantine avoid node 0
        tripped_at = report.jobs[1].round
        for j in report.jobs:
            if j.round > tripped_at:
                assert 0 not in j.nodes
        text = render_campaign_report(report)
        assert "quarantined nodes" in text

    def _crashes(self, machine, n_requests, *specs):
        """Run job 0 under ``specs``; return its nodes and the crash
        incident count of every node the tracker charged."""
        plan = FaultPlan(specs=specs, detection_timeout_s=1.0)
        runner = CampaignRunner(machine, fault_plans={0: plan})
        report = runner.run(_queue(n_requests), steps=4)
        counts = {}
        for incident in runner.health.incidents():
            assert incident.kind == "crash"
            counts[incident.node] = counts.get(incident.node, 0) + 1
        return report.jobs[0].nodes, counts, runner.health.quarantined

    def test_one_crash_incident_per_node_per_failure(self):
        # k = 4 packs on nodes (0, 1); rank 2 (node 0) dies, then rank
        # 6 (node 1): node 0 crashed once and must be charged once —
        # one crash is below the default threshold of two
        machine = replace(generic_cluster(n_nodes=8), mem_per_rank_bytes=float(96 * KiB))
        nodes, counts, quarantined = self._crashes(
            machine,
            4,
            FaultSpec("rank_crash", at_step=1, rank=2),
            FaultSpec("rank_crash", at_step=3, rank=6),
        )
        assert nodes == (0, 1)
        assert counts == {0: 1, 1: 1}
        assert quarantined == ()

    def test_an_aborted_job_charges_its_lost_node_once(self):
        # k = 2 on node 0 alone: losing the node loses every member, so
        # the job aborts; it is one crash, as in a job that shrinks
        nodes, counts, quarantined = self._crashes(
            _machine(), 2, FaultSpec("node_loss", at_step=1, node=0)
        )
        assert nodes == (0,)
        assert counts == {0: 1}
        assert quarantined == ()
        shrunk = replace(generic_cluster(n_nodes=8), mem_per_rank_bytes=float(96 * KiB))
        nodes, counts, _ = self._crashes(
            shrunk, 4, FaultSpec("node_loss", at_step=1, node=0)
        )
        assert nodes == (0, 1)
        assert counts == {0: 1}

    def test_health_tracker_shared_with_custom_packer(self):
        health = NodeHealthTracker(quarantine_threshold=2)
        packer = CampaignPacker(_machine(), health=health)
        runner = CampaignRunner(_machine(), packer=packer)
        assert runner.health is health

    def test_sdc_and_straggler_incidents_recorded(self):
        # one rank per node so the packed job spans all four nodes and
        # the per-node plans actually land on hosted ranks
        plans = {
            0: FaultPlan(
                specs=(FaultSpec("bitflip", at_step=1, rank=0),),
                detection_timeout_s=0.0,
            ),
            1: FaultPlan(
                specs=(FaultSpec("slowdown", at_step=1, rank=0, factor=8.0),),
                detection_timeout_s=0.0,
            ),
        }
        runner = CampaignRunner(
            generic_cluster(n_nodes=4, ranks_per_node=1), node_faults=plans
        )
        report = runner.run(_queue(4), steps=4)
        kinds = {i["kind"] for i in report.health["incidents"]}
        assert "sdc" in kinds
        assert "straggler" in kinds
        assert report.n_completed == 4  # gray faults lose nobody

    def test_healthy_campaign_report_is_unchanged(self):
        # no faults: no abandoned, no quarantine, no health incidents —
        # and the same jobs/completions as the legacy runner
        report = CampaignRunner(_machine()).run(_queue(4), steps=4)
        assert report.n_abandoned == 0
        assert report.quarantined_nodes == ()
        assert report.health["incidents"] == []
        assert report.n_completed == 4
        text = render_campaign_report(report)
        assert "abandoned" not in text
        assert "quarantined" not in text
