"""Units for the gray-failure response pieces: tracker, retry, detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ResilienceError
from repro.resilience import (
    HealthIncident,
    NodeHealthTracker,
    RetryPolicy,
    StragglerDetector,
)


class TestNodeHealthTracker:
    def test_records_and_counts_incidents(self):
        t = NodeHealthTracker()
        t.record(0, "crash", at_s=10.0, detail="job003")
        t.record(0, "sdc", at_s=20.0)
        t.record(1, "straggler")
        assert t.to_dict()["incident_counts"] == {"0": 2, "1": 1}
        assert [i.kind for i in t.incidents(0)] == ["crash", "sdc"]
        assert len(t.incidents()) == 3

    def test_quarantines_at_threshold(self):
        t = NodeHealthTracker(quarantine_threshold=2)
        t.record(3, "crash")
        assert not t.is_quarantined(3)
        t.record(3, "sdc")  # kinds mix; the count is what trips it
        assert t.is_quarantined(3)
        assert t.quarantined == (3,)
        assert t.available_nodes(5) == [0, 1, 2, 4]

    def test_threshold_none_never_quarantines(self):
        t = NodeHealthTracker(quarantine_threshold=None)
        for _ in range(10):
            t.record(0, "crash")
        assert not t.is_quarantined(0)
        assert t.quarantined == ()

    def test_forced_quarantine_and_reset(self):
        t = NodeHealthTracker()
        t.quarantine(7)
        assert t.is_quarantined(7)
        t.reset(7)
        assert not t.is_quarantined(7)
        t.record(2, "crash")
        t.record(2, "crash")
        assert t.is_quarantined(2)
        t.reset(2)  # operator replaced the node: ledger cleared too
        assert not t.is_quarantined(2)
        assert "2" not in t.to_dict()["incident_counts"]

    def test_to_dict_round_trips_json(self):
        import json

        t = NodeHealthTracker()
        t.record(0, "crash", at_s=1.5, detail="d")
        snap = json.loads(json.dumps(t.to_dict()))
        assert snap["quarantine_threshold"] == 2
        assert snap["incident_counts"] == {"0": 1}
        assert snap["incidents"][0]["kind"] == "crash"

    def test_invalid_args_raise(self):
        with pytest.raises(ResilienceError):
            NodeHealthTracker(quarantine_threshold=0)
        with pytest.raises(ResilienceError):
            NodeHealthTracker().record(-1, "crash")

    def test_incident_is_frozen_record(self):
        i = HealthIncident(node=1, kind="sdc", at_s=2.0)
        with pytest.raises(AttributeError):
            i.node = 2


class TestRetryPolicy:
    def test_allows_up_to_cap(self):
        p = RetryPolicy(max_attempts=3)
        assert p.allows(1) and p.allows(3)
        assert not p.allows(4)

    def test_backoff_grows_exponentially(self):
        p = RetryPolicy(base_backoff_s=10.0, backoff_factor=2.0, jitter=0.0)
        assert p.backoff_s(0) == 0.0
        assert p.backoff_s(1) == 10.0
        assert p.backoff_s(2) == 20.0
        assert p.backoff_s(3) == 40.0

    def test_backoff_capped(self):
        p = RetryPolicy(
            base_backoff_s=100.0,
            backoff_factor=10.0,
            max_backoff_s=300.0,
            jitter=0.0,
        )
        assert p.backoff_s(5) == 300.0

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_backoff_s=100.0, jitter=0.1)
        a = p.backoff_s(1, key="req-a")
        b = p.backoff_s(1, key="req-b")
        assert a == p.backoff_s(1, key="req-a")  # same key -> same value
        assert a != b  # different keys de-synchronise
        for v in (a, b):
            assert 90.0 <= v <= 110.0

    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ResilienceError):
            RetryPolicy(base_backoff_s=-1.0)


class TestStragglerDetector:
    def test_uniform_waits_flag_nothing(self):
        d = StragglerDetector()
        assert d.flag([1.0, 1.0, 1.0, 1.0]) == ()

    def test_clear_outlier_is_flagged(self):
        d = StragglerDetector()
        waits = [0.1, 0.12, 0.09, 0.11, 5.0, 0.1, 0.08, 0.1]
        assert d.flag(waits) == (4,)

    def test_extreme_straggler_cannot_mask_itself(self):
        # one huge value drags the mean but not the median/MAD
        d = StragglerDetector()
        waits = [0.1] * 15 + [100.0]
        assert d.flag(waits) == (15,)

    def test_too_few_ranks_returns_empty(self):
        d = StragglerDetector()
        assert d.flag([0.0, 99.0]) == ()

    def test_interval_floor_suppresses_noise(self):
        # imposed waits are skewed but tiny next to the interval: a
        # healthy lockstep group, not a straggler
        d = StragglerDetector()
        waits = [0.0, 0.0, 0.0, 0.002]
        assert d.flag(waits, interval_s=10.0) == ()
        # the same skew against a comparable interval IS a straggler
        assert d.flag(waits, interval_s=0.003) == (3,)

    def test_ranks_subset_indexes_into_full_array(self):
        d = StragglerDetector()
        waits = np.zeros(8)
        waits[6] = 4.0
        waits[0] = 99.0  # rank outside the inspected group: ignored
        assert d.flag(waits, ranks=[2, 3, 4, 5, 6, 7]) == (6,)
