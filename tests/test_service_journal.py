"""The service WAL: journaling, replay, snapshots, exactly-once.

The contract under test: the :class:`ServiceJournal` alone is enough
to reconstruct the online service's books after a control-plane crash
at *any* WAL position — no request is ever re-served (the completed
set is durable) and none is lost (in-flight waves requeue).  The
hypothesis sweep at the bottom is the acceptance property: crash at a
random event index, recover, and demand the recovered run reach the
byte-identical disposition for every request the uncrashed run did.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cgyro.presets import small_test
from repro.errors import JournalCrash, ServiceError
from repro.machine.presets import generic_cluster
from repro.machine.model import KiB
from repro.machine.topology import FaultDomains
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.health import NodeHealthTracker
from repro.service.journal import (
    EVENT_KINDS,
    ReplayState,
    ServiceJournal,
    recover_service,
)
from repro.service.loop import OnlineService
from repro.service.pool import ElasticNodePool
from repro.service.traffic import PoissonTraffic
from repro.service.window import WindowPolicy

WORKLOAD = [small_test(), small_test(nu=0.2)]
HORIZON = 400.0

#: one crash plus one rack loss — enough chaos that the journal holds
#: every event kind, cheap enough to re-run inside a property sweep
PLAN = FaultPlan(
    specs=(
        FaultSpec(kind="service_crash", at_step=0, at_s=150.0, duration_s=40.0),
        FaultSpec(kind="domain_loss", at_step=0, node=1, at_s=250.0, duration_s=80.0),
    )
)


def _machine():
    return dataclasses.replace(
        replace(
            generic_cluster(n_nodes=8), mem_per_rank_bytes=float(96 * KiB)
        ),
        fault_domains=FaultDomains(nodes_per_domain=2),
    )


def _service(journal=None, chaos=PLAN, recovery="resume"):
    return OnlineService(
        _machine(),
        PoissonTraffic(WORKLOAD, rate_per_s=0.08, seed=11),
        window=WindowPolicy(max_hold_s=30.0, min_batch=2),
        min_nodes=1,
        max_nodes=8,
        provision_delay_s=20.0,
        idle_reclaim_s=120.0,
        journal=journal,
        chaos=chaos,
        recovery=recovery,
    )


def _dispositions(report):
    return {
        "offered": report.offered,
        "served": sorted(s.request_id for s in report.served),
        "shed": sorted(r.request_id for r in report.rejections),
        "dead": sorted(a.request_id for a in report.abandoned),
    }


@pytest.fixture(scope="module")
def baseline():
    """One journaled chaos run: (journal, report, dispositions)."""
    journal = ServiceJournal(snapshot_interval=7)
    report = _service(journal=journal).run(HORIZON)
    return journal, report, _dispositions(report)


class TestJournalBasics:
    def test_journal_opens_with_begin_and_covers_the_run(self, baseline):
        journal, report, _ = baseline
        kinds = [k for k, _ in journal.events]
        assert kinds[0] == "begin"
        assert set(kinds) <= set(EVENT_KINDS)
        # the chaos plan fired, so the WAL saw the interesting kinds
        for expected in ("arrival", "flush", "dispatch", "complete", "chaos"):
            assert expected in kinds, expected
        assert len(journal) == len(kinds)
        assert report.offered > 0

    def test_every_append_is_shadow_validated(self, baseline):
        """The journal folds every event before it stores it; the
        state it ends on — the service's own — is what a replay of the
        stored events reaches, and already agrees with the finished
        run."""
        journal, report, want = baseline
        state = journal.state
        assert sorted(s["request_id"] for s in state.served) == want["served"]
        assert state.offered == report.offered
        assert state.to_dict() == ServiceJournal.replay(journal.events).to_dict()

    def test_a_refused_event_is_not_journaled(self):
        """Fold first, append second: an event the fold refuses must
        not stay in a WAL that ``from_jsonl`` would then refuse."""
        journal = ServiceJournal()
        with pytest.raises(ServiceError, match="flush.*'request_ids'"):
            journal.append("flush", {"t": 0.0, "seq": 1})
        assert len(journal) == 0
        assert ServiceJournal.from_jsonl(journal.to_jsonl()).events == []
        # and the journal is still usable: a valid event lands and
        # the WAL round-trips
        begin = {
            "t": 0.0,
            "horizon_s": 1.0,
            "pool": ElasticNodePool(_machine()).to_dict(),
            "health": NodeHealthTracker().to_dict(),
        }
        journal.append("begin", begin)
        assert len(journal) == 1
        again = ServiceJournal.from_jsonl(journal.to_jsonl())
        assert again.events == journal.events
        assert again.state.to_dict() == journal.state.to_dict()

    def test_jsonl_round_trip(self, baseline):
        journal, _, _ = baseline
        text = journal.to_jsonl()
        again = ServiceJournal.from_jsonl(text)
        assert again.events == journal.events
        assert again.to_jsonl() == text

    def test_file_round_trip(self, baseline, tmp_path):
        journal, _, _ = baseline
        path = tmp_path / "service.wal"
        journal.to_file(path)
        assert ServiceJournal.from_file(path).events == journal.events

    def test_replay_matches_final_accounting(self, baseline):
        journal, report, want = baseline
        state = ServiceJournal.replay(journal.events)
        assert isinstance(state, ReplayState)
        assert state.offered == want["offered"]
        assert sorted(s["request_id"] for s in state.served) == want["served"]
        assert sorted(r["request_id"] for r in state.rejections) == want["shed"]
        assert sorted(a["request_id"] for a in state.abandoned) == want["dead"]
        assert state.pool["node_seconds"] == pytest.approx(
            report.pool_node_seconds
        )

    def test_replay_of_empty_journal_is_none(self):
        assert ServiceJournal.replay([]) is None

    def test_snapshots_fast_forward_to_the_same_state(self, baseline):
        """Replaying from the last snapshot must equal replaying every
        event from the beginning."""
        journal, _, _ = baseline
        events = journal.events
        assert any(k == "snapshot" for k, _ in events)
        full = ServiceJournal.replay(
            [(k, p) for k, p in events if k != "snapshot"]
        )
        fast = ServiceJournal.replay(events)
        assert fast.to_dict() == full.to_dict()

    def test_state_dict_round_trip(self, baseline):
        journal, _, _ = baseline
        state = ServiceJournal.replay(journal.events)
        again = ReplayState.from_dict(state.to_dict())
        assert again.to_dict() == state.to_dict()

    def test_journal_is_byte_stable_across_reruns(self, baseline):
        journal, _, _ = baseline
        other = ServiceJournal(snapshot_interval=7)
        _service(journal=other).run(HORIZON)
        assert other.to_jsonl() == journal.to_jsonl()


class TestCrashRecovery:
    def test_crash_injection_raises_before_the_event_lands(self):
        journal = ServiceJournal(crash_at_event=3)
        with pytest.raises(JournalCrash, match="WAL event 3"):
            _service(journal=journal).run(HORIZON)
        assert len(journal) == 3

    def test_recover_from_empty_journal_runs_fresh(self, baseline):
        _, _, want = baseline
        report = recover_service(
            _service(), ServiceJournal(), horizon_s=HORIZON
        )
        assert _dispositions(report) == want

    def test_recover_from_empty_journal_needs_a_horizon(self):
        with pytest.raises(ServiceError, match="horizon"):
            recover_service(_service(), ServiceJournal())

    def test_restore_rejects_a_used_service(self, baseline):
        journal, _, _ = baseline
        state = ServiceJournal.replay(journal.events)
        used = _service()
        used.run(HORIZON)
        with pytest.raises(ServiceError, match="fresh"):
            used.restore(state)

    def test_recover_rejects_unknown_mode(self, baseline):
        journal, _, _ = baseline
        crashed = ServiceJournal(crash_at_event=10)
        with pytest.raises(JournalCrash):
            _service(journal=crashed).run(HORIZON)
        with pytest.raises(ServiceError, match="mode must be"):
            recover_service(
                _service(), crashed, horizon_s=HORIZON, mode="warm"
            )

    def test_resume_delay_still_conserves(self, baseline):
        """A recovery that restarts 30 s late may serve a different
        set, but the books must still balance."""
        crashed = ServiceJournal(crash_at_event=40)
        with pytest.raises(JournalCrash):
            _service(journal=crashed).run(HORIZON)
        report = recover_service(
            _service(),
            crashed,
            horizon_s=HORIZON,
            resume_delay_s=30.0,
        )
        assert (
            report.n_served + report.n_shed + report.n_abandoned
            == report.offered
        )
        assert (report.resilience or {}).get("wal_recoveries") == 1

    def test_recovered_report_counts_the_recovery(self, baseline):
        crashed = ServiceJournal(crash_at_event=25)
        with pytest.raises(JournalCrash):
            _service(journal=crashed).run(HORIZON)
        report = recover_service(_service(), crashed, horizon_s=HORIZON)
        resil = report.resilience or {}
        assert resil.get("wal_recoveries") == 1


class TestExactlyOnceProperty:
    """Crash anywhere in the WAL; recovery must change nothing."""

    @given(raw=st.integers(min_value=0, max_value=10**9))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_crash_at_any_event_recovers_identically(self, baseline, raw):
        journal, _, want = baseline
        k = 1 + raw % (len(journal) - 1)
        crashed = ServiceJournal(
            snapshot_interval=7, crash_at_event=k
        )
        with pytest.raises(JournalCrash):
            _service(journal=crashed).run(HORIZON)
        assert len(crashed) == k
        recovered = recover_service(
            _service(), crashed, horizon_s=HORIZON
        )
        assert _dispositions(recovered) == want

    def test_recovered_run_journals_a_recover_event(self, baseline):
        journal, _, _ = baseline
        k = len(journal) // 2
        crashed = ServiceJournal(snapshot_interval=7, crash_at_event=k)
        with pytest.raises(JournalCrash):
            _service(journal=crashed).run(HORIZON)
        # give the recovered run its own journal: it reseeds from the
        # replayed state (snapshot-first) and logs the recovery
        second = ServiceJournal(snapshot_interval=7)
        recover_service(
            _service(journal=second), crashed, horizon_s=HORIZON
        )
        kinds = [kind for kind, _ in second.events]
        assert kinds[0] == "snapshot"
        assert "recover" in kinds
        # the second-generation journal replays clean end to end
        assert ServiceJournal.replay(second.events) is not None
