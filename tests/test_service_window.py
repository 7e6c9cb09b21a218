"""Moving-window batching laws (property-tested) and edge cases."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.errors import ServiceError
from repro.campaign.request import SimRequest
from repro.cgyro.presets import small_test
from repro.service.window import MovingWindow, WindowPolicy
from repro.xgyro.validate import group_by_signature

#: Four signature families (nu enters the cmat signature), one cadence.
FAMILIES = tuple(small_test(nu=0.05 * (i + 1)) for i in range(4))


def _request(i: int, family: int) -> SimRequest:
    return SimRequest(
        request_id=f"r{i}", input=FAMILIES[family], arrival_s=float(i)
    )


# ----------------------------------------------------------------------
# law 1: a flushed window is exactly the group_by_signature partition
# ----------------------------------------------------------------------
@given(families=st.lists(st.integers(0, 3), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_force_flush_is_group_by_signature_partition(families):
    requests = [_request(i, f) for i, f in enumerate(families)]
    window = MovingWindow(
        WindowPolicy(max_hold_s=1e9, min_batch=10**6)  # nothing self-flushes
    )
    for req in requests:
        window.add(req, req.arrival_s)
    batches = window.flush(requests[-1].arrival_s, force=True)
    got = [[r.request_id for r in b.requests] for b in batches]
    expected = [
        [requests[i].request_id for i in indices]
        for _, indices in group_by_signature([r.input for r in requests])
    ]
    assert got == expected
    assert not window._held
    # and no batch mixes signatures or cadences
    for batch in batches:
        sigs = {r.input.cmat_signature() for r in batch.requests}
        cadences = {r.input.steps_per_report for r in batch.requests}
        assert len(sigs) == 1 and len(cadences) == 1


# ----------------------------------------------------------------------
# law 2: no request is held past max_hold_s
# ----------------------------------------------------------------------
@given(
    families=st.lists(st.integers(0, 3), min_size=1, max_size=20),
    gaps=st.lists(
        st.floats(0.0, 50.0, allow_nan=False), min_size=20, max_size=20
    ),
    hold=st.floats(0.5, 100.0, allow_nan=False),
    min_batch=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_no_request_waits_past_max_hold(families, gaps, hold, min_batch):
    window = MovingWindow(WindowPolicy(max_hold_s=hold, min_batch=min_batch))
    added_at = {}
    flushed_at = {}

    def drain(now):
        for batch in window.flush(now):
            for r in batch.requests:
                assert r.request_id not in flushed_at
                flushed_at[r.request_id] = now

    t = 0.0
    for i, family in enumerate(families):
        t += gaps[i]
        # fire every expiry timer due before this arrival
        while True:
            expiry = window.next_expiry()
            if expiry is None or expiry > t:
                break
            drain(expiry)
        req = _request(i, family)
        added_at[req.request_id] = t
        window.add(req, t)
        drain(t)  # min_batch may have been reached
    while window._held:
        expiry = window.next_expiry()
        assert expiry is not None
        drain(expiry)
    assert set(flushed_at) == set(added_at)  # everything left exactly once
    for rid, out in flushed_at.items():
        assert out - added_at[rid] <= hold + 1e-9


# ----------------------------------------------------------------------
# edges
# ----------------------------------------------------------------------
class TestWindowEdges:
    def test_min_batch_flushes_immediately(self):
        window = MovingWindow(WindowPolicy(max_hold_s=1e9, min_batch=2))
        window.add(_request(0, 0), 0.0)
        assert window.flush(0.0) == []
        window.add(_request(1, 0), 1.0)
        [batch] = window.flush(1.0)
        assert [r.request_id for r in batch.requests] == ["r0", "r1"]
        assert not window._held

    def test_max_batch_splits_and_remainder_keeps_waiting(self):
        window = MovingWindow(
            WindowPolicy(max_hold_s=1e9, min_batch=2, max_batch=2)
        )
        for i in range(5):
            window.add(_request(i, 0), 0.0)
        batches = window.flush(0.0)
        assert [b.size for b in batches] == [2, 2]
        # the size-1 remainder is below min_batch and not yet old
        assert [r.request_id for r in window._held] == ["r4"]
        [rest] = window.flush(1e9)
        assert rest.size == 1

    def test_hold_expiry_flushes_undersized_group(self):
        window = MovingWindow(WindowPolicy(max_hold_s=10.0, min_batch=4))
        window.add(_request(0, 0), 5.0)
        assert window.flush(14.9) == []
        assert window.next_expiry() == 15.0
        [batch] = window.flush(15.0)
        assert batch.size == 1

    def test_duplicate_add_rejected(self):
        window = MovingWindow()
        window.add(_request(0, 0), 0.0)
        with pytest.raises(ServiceError):
            window.add(_request(0, 1), 1.0)

    def test_policy_validation(self):
        with pytest.raises(ServiceError):
            WindowPolicy(max_hold_s=-1.0)
        with pytest.raises(ServiceError):
            WindowPolicy(min_batch=0)
        with pytest.raises(ServiceError):
            WindowPolicy(max_batch=0)

    def test_empty_window_flush_and_expiry(self):
        window = MovingWindow()
        assert window.flush(0.0) == []
        assert window.next_expiry() is None
        assert not window._held
