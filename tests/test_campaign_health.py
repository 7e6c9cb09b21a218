"""Campaign-level robustness: cache integrity, bounded retry, quarantine."""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignPacker,
    CampaignRunner,
    CmatCache,
    RequestQueue,
    SimRequest,
)
from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.perf import render_campaign_report
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    NodeHealthTracker,
    RetryPolicy,
)

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
        (entry,) = cache.entries()
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
        assert retry_jobs[0].start_s >= first.finish_s + 50.0

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
