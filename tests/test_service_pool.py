"""Elastic pool lifecycle, admission control, and fair-share policy."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.campaign.request import SimRequest
from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.resilience.health import NodeHealthTracker
from repro.service.admission import AdmissionController, FairSharePolicy
from repro.service.journal import ReplayState
from repro.service.pool import (
    BUSY,
    IDLE,
    OFFLINE,
    PROVISIONING,
    ElasticNodePool,
    PoolSample,
    advance,
    sample,
    transition,
)


@pytest.fixture
def machine():
    return generic_cluster(n_nodes=8)


def _req(i, tenant=None, deadline=None):
    return SimRequest(
        request_id=f"r{i}",
        input=small_test(),
        arrival_s=float(i),
        tenant=tenant,
        deadline_s=deadline,
    )


class TestPoolLifecycle:
    def test_floor_is_idle_at_t0(self, machine):
        pool = ElasticNodePool(machine, min_nodes=3)
        assert pool.provisioned == 3
        assert pool.free_nodes(0.0) == [0, 1, 2]
        assert pool.state_of(3) == OFFLINE

    def test_grow_respects_provision_delay(self, machine):
        pool = ElasticNodePool(machine, min_nodes=1, provision_delay_s=30.0)
        grown, ready_at = pool.pick_grow(2, 10.0)
        assert (grown, ready_at) == ((1, 2), 40.0)
        transition(pool.book, grown, PROVISIONING, 10.0, ready_at)
        assert pool.state_of(1) == PROVISIONING
        assert pool.provisioned == 1 and pool.committed == 3
        assert pool.ready_times() == [40.0]
        assert pool.due_ready(39.0) == []
        assert pool.due_ready(40.0) == [1, 2]
        transition(pool.book, [1, 2], IDLE, 40.0)
        assert pool.due_ready(40.0) == [] and pool.ready_times() == []
        assert pool.free_nodes(40.0) == [0, 1, 2]

    def test_grow_clamps_at_ceiling(self, machine):
        pool = ElasticNodePool(machine, min_nodes=1, max_nodes=3)
        grown, ready_at = pool.pick_grow(10, 0.0)
        assert (grown, ready_at) == ((1, 2), 0.0)  # takes only 2
        transition(pool.book, grown, PROVISIONING, 0.0, ready_at)
        # provisioning nodes already count against the ceiling
        assert pool.pick_grow(1, 0.0) is None
        transition(pool.book, pool.due_ready(0.0), IDLE, 0.0)
        assert pool.provisioned == 3
        assert pool.pick_grow(1, 1.0) is None

    def test_allocate_release_cycle(self, machine):
        pool = ElasticNodePool(machine, min_nodes=4)
        assert transition(pool.book, [0, 2], BUSY, 5.0)
        assert pool.state_of(0) == BUSY and pool.busy == 2
        assert pool.free_nodes(5.0) == [1, 3]
        assert not transition(pool.book, [0], BUSY, 6.0)  # already busy
        assert transition(pool.book, [0, 2], IDLE, 7.0)
        assert pool.state_of(0) == IDLE and pool.busy == 0
        assert pool.free_nodes(7.0) == [0, 1, 2, 3]

    def test_reclaim_drains_idle_but_keeps_floor_and_busy(self, machine):
        pool = ElasticNodePool(
            machine, min_nodes=1, max_nodes=4, idle_reclaim_s=100.0
        )
        grown, _ = pool.pick_grow(3, 0.0)
        transition(pool.book, grown, IDLE, 0.0)
        transition(pool.book, [3], BUSY, 0.0)  # busy forever
        assert pool.pick_reclaim(99.0) == []
        reclaimed = pool.pick_reclaim(100.0)
        # newest-first, floor of one online node kept; node 3 is busy
        # (and busy counts toward online capacity)
        assert reclaimed == [2, 1, 0]
        transition(pool.book, reclaimed, OFFLINE, 100.0)
        assert pool.provisioned == 1 and pool.state_of(3) == BUSY
        # the busy node is now the floor: nothing is ever reclaimable
        assert pool.pick_reclaim(1e9) == []

    def test_release_resets_the_idle_clock(self, machine):
        pool = ElasticNodePool(machine, min_nodes=1, idle_reclaim_s=50.0)
        transition(pool.book, [1], IDLE, 0.0)  # nodes 0 and 1 idle since t=0
        transition(pool.book, [1], BUSY, 10.0)
        transition(pool.book, [1], IDLE, 40.0)  # its idle clock restarts at 40
        assert pool.next_reclaim() == 50.0
        assert pool.pick_reclaim(50.0) == [0]  # node 1 is not yet due
        transition(pool.book, [0], OFFLINE, 50.0)
        # node 1 is now the floor: nothing left to reclaim
        assert pool.next_reclaim() is None

    def test_quarantined_nodes_are_not_free(self, machine):
        health = NodeHealthTracker(quarantine_threshold=1)
        pool = ElasticNodePool(machine, min_nodes=3, health=health)
        health.record(1, "crash", at_s=0.0)
        assert pool.free_nodes(0.0) == [0, 2]
        health.record(3, "crash", at_s=0.0)
        assert pool.pick_grow(1, 0.0)[0] == (4,)  # never grows onto it

    def test_hard_fail_offlines_a_node_from_any_state(self, machine):
        pool = ElasticNodePool(machine, min_nodes=2, provision_delay_s=9.0)
        grown, ready_at = pool.pick_grow(1, 0.0)
        transition(pool.book, grown, PROVISIONING, 0.0, ready_at)
        transition(pool.book, [0], BUSY, 1.0)
        # idle (1), busy (0), provisioning (2) and offline (3) alike
        assert transition(pool.book, [0, 1, 2, 3], OFFLINE, 2.0)
        assert pool.provisioned == 0 and pool.committed == 0
        assert pool.ready_times() == [] and pool.next_reclaim() is None
        assert pool.book["idle_since"] == {} and pool.book["ready_at"] == {}

    def test_cost_integral_counts_provisioned_seconds(self, machine):
        pool = ElasticNodePool(machine, min_nodes=2, idle_reclaim_s=10.0)
        for t, state in ((5.0, BUSY), (15.0, IDLE)):
            advance(pool.book, t)
            transition(pool.book, [0], state, t)
        advance(pool.book, 20.0)
        assert pool.node_seconds == pytest.approx(2 * 20.0)  # busy or idle

    def test_clock_never_moves_backwards(self, machine):
        pool = ElasticNodePool(machine, min_nodes=1)
        advance(pool.book, 10.0)
        advance(pool.book, 5.0)  # an earlier time integrates nothing
        assert pool.book["last_t"] == 10.0
        assert pool.node_seconds == pytest.approx(10.0)

    def test_timeline_samples_the_book(self, machine):
        pool = ElasticNodePool(machine, min_nodes=1, provision_delay_s=5.0)
        grown, ready_at = pool.pick_grow(1, 0.0)
        transition(pool.book, grown, PROVISIONING, 0.0, ready_at)
        transition(pool.book, [0], BUSY, 1.0)
        assert PoolSample(**sample(pool.book, 2.0)) == PoolSample(
            t_s=2.0, provisioned=1, busy=1, provisioning=1
        )
        # the fold samples at begin, after each event that moved a
        # node, and at end
        state = ReplayState()
        fresh = ElasticNodePool(machine, min_nodes=1)
        health = NodeHealthTracker().to_dict()
        for t, kind, payload in (
            (0.0, "begin", {"horizon_s": 9.0, "pool": fresh.book, "health": health}),
            (5.0, "pool", {"op": "grow", "nodes": [1], "ready_at": 5.0}),
            (5.0, "pool", {"op": "ready", "nodes": [1]}),
            (6.0, "pool", {"op": "ready", "nodes": [1]}),  # moves nothing
            (7.0, "end", {}),
        ):
            state.apply(kind, {"t": t, **payload})
        assert [PoolSample(**d) for d in state.pool_timeline] == [
            PoolSample(t_s=0.0, provisioned=1, busy=0, provisioning=0),
            PoolSample(t_s=5.0, provisioned=1, busy=0, provisioning=1),
            PoolSample(t_s=5.0, provisioned=2, busy=0, provisioning=0),
            PoolSample(t_s=7.0, provisioned=2, busy=0, provisioning=0),
        ]

    def test_validation(self, machine):
        with pytest.raises(ServiceError):
            ElasticNodePool(machine, min_nodes=0)
        with pytest.raises(ServiceError):
            ElasticNodePool(machine, min_nodes=5, max_nodes=4)
        with pytest.raises(ServiceError):
            ElasticNodePool(machine, max_nodes=99)
        with pytest.raises(ServiceError):
            ElasticNodePool(machine, provision_delay_s=-1.0)
        with pytest.raises(ServiceError):
            ElasticNodePool(machine, idle_reclaim_s=0.0)
        with pytest.raises(ServiceError):
            ElasticNodePool(machine).state_of(99)


class TestAdmission:
    def test_unbounded_never_sheds(self):
        ctl = AdmissionController()
        for i in range(100):
            assert ctl.try_admit(_req(i), pending=i) is None

    def test_bounded_sheds_with_record(self):
        ctl = AdmissionController(max_pending=2)
        assert ctl.try_admit(_req(0), pending=0) is None
        assert ctl.try_admit(_req(1), pending=1) is None
        rec = ctl.try_admit(_req(2, tenant="t"), pending=2)
        assert rec is not None
        assert rec.request_id == "r2" and rec.tenant == "t"
        assert rec.pending == 2 and "max_pending" in rec.reason
        assert rec.to_dict()["reason"] == rec.reason
        # only a decision: asking again books nothing and answers the same
        assert ctl.try_admit(_req(2, tenant="t"), pending=2) == rec
        assert ctl.try_admit(_req(3), pending=1) is None

    def test_a_closed_door_sheds_whatever_the_backlog(self):
        rec = AdmissionController().try_admit(
            _req(0), pending=0, down_until=12.5
        )
        assert rec is not None and rec.pending == 0
        assert "down until t=12.500" in rec.reason

    def test_validation(self):
        with pytest.raises(ServiceError):
            AdmissionController(max_pending=0)


class TestFairShare:
    def test_charge_splits_evenly_and_normalises_by_weight(self):
        policy = FairSharePolicy({"a": 2.0})
        before = {"b": 1.0}
        served = policy.charge(before, [_req(0, "a"), _req(1, "b")], 100.0)
        assert served == {"a": 50.0, "b": 51.0}
        assert before == {"b": 1.0}  # a new ledger; the old one is not touched
        assert policy.normalised_service(served, "a") == pytest.approx(25.0)
        assert policy.normalised_service(served, "b") == pytest.approx(51.0)

    def test_unattributed_requests_share_the_default_bucket(self):
        policy = FairSharePolicy()
        served = policy.charge({}, [_req(0)], 10.0)
        assert policy.normalised_service(served, None) == pytest.approx(10.0)
        assert served == {"default": 10.0}

    def test_batch_key_prefers_underserved_then_edf(self):
        policy = FairSharePolicy()
        served = policy.charge({}, [_req(0, "rich")], 100.0)
        poor_late = [_req(1, "poor", deadline=500.0)]
        poor_soon = [_req(2, "poor", deadline=50.0)]
        rich = [_req(3, "rich", deadline=1.0)]
        order = sorted(
            [(rich, 0), (poor_late, 1), (poor_soon, 2)],
            key=lambda item: policy.batch_key(served, item[0], item[1]),
        )
        # both "poor" batches beat "rich" despite rich's earlier
        # deadline; EDF breaks the tie within "poor"
        assert [seq for _, seq in order] == [2, 1, 0]

    def test_batch_key_uses_flush_seq_as_final_tiebreak(self):
        policy = FairSharePolicy()
        a = policy.batch_key({}, [_req(0, "t", deadline=10.0)], 1)
        b = policy.batch_key({}, [_req(1, "t", deadline=10.0)], 2)
        assert a < b

    def test_validation(self):
        with pytest.raises(ServiceError):
            FairSharePolicy({"a": 0.0})
        with pytest.raises(ServiceError):
            FairSharePolicy().charge({}, [], -1.0)
        with pytest.raises(ServiceError):
            FairSharePolicy().batch_key({}, [], 0)
