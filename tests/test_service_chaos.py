"""Control-plane fault injection and the chaos scenario harness.

The data-plane faults (rank crash, bitflip, straggler) are covered in
``test_degraded_mode.py``; this file is about the *control plane*:
the service loop itself crashing, the node provider failing, and a
whole fault domain going dark — plus the invariants runner that ties
the schedules together for ``repro chaos``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from repro.campaign.request import SimRequest
from repro.cgyro.presets import linear_benchmark, small_test
from repro.errors import InvariantViolation, ServiceError
from repro.check.invariants import (
    ChaosScenario,
    builtin_scenarios,
    recovery_matches,
    render_chaos_report,
    run_scenario,
)
from repro.machine.presets import generic_cluster
from repro.machine.model import KiB
from repro.machine.topology import FaultDomains
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.health import RetryPolicy
from repro.service.journal import ServiceJournal, recover_service
from repro.service.loop import OnlineService
from repro.service.traffic import PoissonTraffic, replay
from repro.service.window import WindowPolicy

WORKLOAD = [small_test(), small_test(nu=0.2)]


def _machine(n_nodes=8, nodes_per_domain=2, mem_kib=96):
    return dataclasses.replace(
        replace(
            generic_cluster(n_nodes=n_nodes),
            mem_per_rank_bytes=float(mem_kib * KiB),
        ),
        fault_domains=FaultDomains(nodes_per_domain=nodes_per_domain),
    )


def _service(machine=None, traffic=None, **kwargs):
    machine = machine if machine is not None else _machine()
    traffic = traffic or PoissonTraffic(WORKLOAD, rate_per_s=0.05, seed=7)
    defaults = dict(
        window=WindowPolicy(max_hold_s=30.0, min_batch=2),
        min_nodes=1,
        max_nodes=machine.n_nodes,
        provision_delay_s=20.0,
        idle_reclaim_s=120.0,
    )
    defaults.update(kwargs)
    return OnlineService(machine, traffic, **defaults)


def _conserved(report):
    return (
        report.n_served + report.n_shed + report.n_abandoned
        == report.offered
    )


def _split_wave(domain, **kwargs):
    """Two linear requests in one wave on the whole pre-provisioned
    machine: the spread selection takes (0, 1, 4, 5), so member 0 sits
    entirely on domain 0 and member 1 on domain 1.  The wave dispatches
    at t=0 and runs ~73 ms of simulated time; the loss of ``domain`` at
    t=0.05 lands mid-flight and kills exactly one member's nodes."""
    machine = _machine(nodes_per_domain=4, mem_kib=2 * 1024)
    stream = [
        SimRequest(
            request_id=rid, input=linear_benchmark(), arrival_s=0.0, tenant="t"
        )
        for rid in ("a", "b")
    ]
    plan = FaultPlan(
        specs=(
            FaultSpec(
                kind="domain_loss",
                at_step=0,
                node=domain,
                at_s=0.05,
                duration_s=5.0,
            ),
        )
    )
    return _service(
        machine=machine,
        traffic=replay(stream),
        window=WindowPolicy(max_hold_s=5.0, min_batch=2),
        steps=10,
        chaos=plan,
        min_nodes=8,
        provision_delay_s=1.0,
        **kwargs,
    )


class TestServiceCrash:
    PLAN = FaultPlan(
        specs=(
            FaultSpec(
                kind="service_crash", at_step=0, at_s=300.0, duration_s=60.0
            ),
        )
    )

    def _run(self, recovery):
        svc = _service(
            traffic=PoissonTraffic(WORKLOAD, rate_per_s=0.05, seed=42),
            window=WindowPolicy(max_hold_s=120.0, min_batch=4),
            provision_delay_s=60.0,
            chaos=self.PLAN,
            recovery=recovery,
        )
        return svc.run(900.0)

    def test_resume_sheds_during_downtime_but_loses_nothing(self):
        report = self._run("resume")
        resil = report.resilience
        assert _conserved(report)
        assert resil["crashes"] == 1
        assert resil["recovery_seconds"] == 60.0
        assert report.n_abandoned == 0
        # arrivals during the outage are shed with a reason that says so
        down = [
            r
            for r in report.rejections
            if "control-plane crash" in r.reason
        ]
        assert len(down) == resil["downtime_shed"] > 0

    def test_cold_restart_dead_letters_in_system_work(self):
        report = self._run("cold")
        resil = report.resilience
        assert _conserved(report)
        assert report.n_abandoned > 0
        assert (
            resil["dead_letters_by_cause"]["service_crash"]
            == report.n_abandoned
        )
        assert all(
            "cold restart" in a.reason for a in report.abandoned
        )

    def test_resume_beats_cold_on_availability(self):
        resume, cold = self._run("resume"), self._run("cold")
        assert resume.n_served > cold.n_served
        assert resume.n_abandoned < cold.n_abandoned

class TestProvisionFail:
    def test_refusal_and_stall_are_charged(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="provision_fail", at_step=0, at_s=0.0, duration_s=0.0
                ),
                FaultSpec(
                    kind="provision_fail",
                    at_step=0,
                    at_s=100.0,
                    duration_s=60.0,
                ),
            )
        )
        report = _service(chaos=plan).run(1200.0)
        resil = report.resilience
        assert _conserved(report)
        assert resil["provision_failures"] >= 1
        assert resil["provision_stall_seconds"] == 60.0
        # a refused grow delays capacity, it never loses requests
        assert report.n_abandoned == 0

    def test_unconsumed_specs_are_harmless(self):
        """A provision fault scheduled after the last grow never fires."""
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="provision_fail",
                    at_step=0,
                    at_s=10_000.0,
                    duration_s=30.0,
                ),
            )
        )
        report = _service(chaos=plan).run(600.0)
        assert _conserved(report)
        resil = report.resilience or {}
        assert resil.get("provision_failures", 0) == 0
        assert resil.get("provision_stall_seconds", 0.0) == 0.0


class TestDomainLoss:
    def test_domain_loss_quarantines_and_recovers(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="domain_loss",
                    at_step=0,
                    node=1,
                    at_s=200.0,
                    duration_s=300.0,
                ),
            )
        )
        journal = ServiceJournal()
        svc = _service(chaos=plan, journal=journal)
        report = svc.run(1200.0)
        assert _conserved(report)
        assert report.resilience["domain_losses"] == 1
        # both nodes of domain 1 hard-failed together...
        losses = [
            p["failed_nodes"]
            for kind, p in journal.events
            if kind == "chaos" and p.get("failed_nodes")
        ]
        assert losses == [[2, 3]]
        # ...and the scheduled restore wiped their health record: by
        # run end nothing is quarantined and the machine is whole again
        assert not svc.health.incidents()
        assert svc.health.available_nodes(8) == list(range(8))

    def test_domain_loss_hits_an_inflight_wave_member_level(self):
        """A 2-member wave spanning both domains loses exactly the
        members whose nodes died; the survivor's result is kept and
        the victims are requeued and eventually served."""
        report = _split_wave(domain=0).run(60.0)
        assert _conserved(report)
        assert report.n_served == 2
        resil = report.resilience
        assert resil["domain_losses"] == 1
        assert resil["retries"] >= 1
        # the job record remembers which members it lost
        lossy = [j for j in report.jobs if j.lost_request_ids]
        assert len(lossy) == 1
        assert len(lossy[0].lost_request_ids) == 1
        # the victim was re-served on a later attempt
        victim = lossy[0].lost_request_ids[0]
        (served_victim,) = [
            s for s in report.served if s.request_id == victim
        ]
        assert served_victim.attempts >= 2

    def test_recovered_report_keeps_its_lost_work(self):
        """The wave that lives on lost 0.05 s of its dead member's work;
        a run recovered from a WAL cut right after the loss states the
        same lost work, because the fold, not a volatile ledger, holds
        it."""
        journal = ServiceJournal()
        report = _split_wave(domain=0, journal=journal).run(60.0)
        assert report.resilience["lost_work_seconds"] == pytest.approx(0.05)
        kinds = [kind for kind, _ in journal.events]
        cut = kinds.index("chaos") + 1
        recovered = recover_service(
            _split_wave(domain=0), journal.events[:cut], horizon_s=60.0
        )
        assert (
            recovered.resilience["lost_work_seconds"]
            == report.resilience["lost_work_seconds"]
        )
        assert "control_ledger" not in recovered.resilience

    def test_dead_letters_keep_their_own_cause_in_the_wal(self):
        """A wave that loses one member to a data fault and the other
        to a domain loss, with the retry budget already spent, dead-
        letters one request per cause — live, in a replay of the journal,
        and in a run recovered from that WAL alike."""

        def build(journal=None):
            # member 0 on domain 0 dies of node 0's rank crash, member 1
            # on domain 1 of the rack
            return _split_wave(
                domain=1,
                node_faults={
                    0: FaultPlan(
                        specs=(FaultSpec(kind="rank_crash", at_step=2, rank=0),)
                    )
                },
                retry=RetryPolicy(max_attempts=1),
                journal=journal,
            )

        want = {"data_faults": 1, "domain_loss": 1}
        journal = ServiceJournal()
        report = build(journal).run(60.0)
        assert report.jobs[0].nodes == (0, 1, 4, 5)
        assert report.resilience["dead_letters_by_cause"] == want
        assert ServiceJournal.replay(journal.events).dead_by_cause == want
        # crash right before the closing event: every dead letter the
        # recovered report shows came out of the WAL, not a live tally
        recovered = recover_service(
            build(), journal.events[:-1], horizon_s=60.0
        )
        assert recovered.resilience["dead_letters_by_cause"] == want

    def test_arrivals_while_pool_fully_quarantined(self):
        """One fault domain covers the whole machine: every node dies
        at once, arrivals keep coming, and nothing is lost — the
        grow deadlock guard defers to the scheduled domain restore."""
        machine = _machine(n_nodes=4, nodes_per_domain=4)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="domain_loss",
                    at_step=0,
                    node=0,
                    at_s=100.0,
                    duration_s=200.0,
                ),
            )
        )
        svc = _service(
            machine=machine,
            traffic=PoissonTraffic(WORKLOAD, rate_per_s=0.05, seed=3),
            max_nodes=4,
            chaos=plan,
        )
        report = svc.run(900.0)
        assert _conserved(report)
        assert report.n_served > 0
        # requests really did arrive while every node was dark
        darkened = [
            s for s in report.served if 100.0 <= s.arrival_s <= 300.0
        ]
        assert darkened
        assert all(s.finish_s >= 300.0 for s in darkened)


class TestDomainSpreadPlacement:
    def test_spread_selects_across_domains(self):
        machine = _machine(n_nodes=8, nodes_per_domain=2)
        svc_spread = _service(machine=machine, spread_domains=True)
        svc_packed = _service(machine=machine, spread_domains=False)
        free = list(range(8))
        spread = svc_spread.packer.select_nodes(free, 4)
        packed = svc_packed.packer.select_nodes(free, 4)
        domains = machine.fault_domains
        assert len({domains.domain_of(n) for n in spread}) == 4
        assert len({domains.domain_of(n) for n in packed}) == 2


class TestForceDrainEdges:
    def test_force_drain_flushes_nonempty_window_at_horizon(self):
        """Requests still held below min_batch when traffic ends are
        dispatched by the final force-drain, not dropped."""
        base = small_test()
        stream = [
            SimRequest(
                request_id=f"r{i}", input=base, arrival_s=50.0, tenant="t"
            )
            for i in range(2)
        ]
        svc = _service(
            traffic=replay(stream),
            window=WindowPolicy(
                max_hold_s=float("inf"), min_batch=5
            ),
        )
        report = svc.run(200.0)
        assert report.offered == 2
        assert report.n_served == 2
        assert not svc.state.window  # drained
        # they were flushed at the drain, not at arrival
        assert all(s.start_s >= 50.0 for s in report.served)


class TestInvariantsRunner:
    def test_builtin_scenarios_cover_the_fault_kinds(self):
        names = [s.name for s in builtin_scenarios(smoke=True)]
        assert names == [
            "crash-resume",
            "rack-loss",
            "provision-stall",
            "kitchen-sink",
        ]
        kinds = {
            spec.kind
            for s in builtin_scenarios(smoke=True)
            for spec in s.plan.specs
        }
        assert kinds == {"service_crash", "domain_loss", "provision_fail"}

    def test_scenario_passes_and_reports(self):
        scenario = ChaosScenario(
            name="mini-crash",
            description="one crash, tiny horizon",
            plan=FaultPlan(
                specs=(
                    FaultSpec(
                        kind="service_crash",
                        at_step=0,
                        at_s=150.0,
                        duration_s=30.0,
                    ),
                )
            ),
            horizon_s=400.0,
            crash_samples=1,
        )
        result = run_scenario(scenario)
        assert result.ok
        names = [c.name for c in result.checks]
        for expected in (
            "checker-clean",
            "conservation",
            "unique-disposition",
            "ledger",
            "wal-replay",
        ):
            assert expected in names
        assert any(n.startswith("exactly-once@") for n in names)
        text = render_chaos_report([result])
        assert "mini-crash" in text and "PASS" in text

    def test_exactly_once_fails_a_recovery_that_drops_a_crash(self):
        """Negative control: same dispositions, one crash fewer."""
        report = TestServiceCrash()._run("resume")
        assert recovery_matches(report, report) == (
            True, "identical dispositions after recovery"
        )
        dropped = dataclasses.replace(
            report, resilience={**report.resilience, "crashes": 0}
        )
        ok, detail = recovery_matches(dropped, report)
        assert not ok
        assert '"crashes": [1, 0]' in detail

    def test_failed_invariant_raises_invariant_violation(self, monkeypatch):
        import repro.check.invariants as invariants

        # a replay that never matches the books: the wal-replay check fails
        monkeypatch.setattr(invariants, "replay_matches_report", lambda *a: False)
        scenario = ChaosScenario(
            name="bad-replay",
            description="a WAL replay that disagrees with the report",
            plan=FaultPlan(specs=()),
            horizon_s=200.0,
            crash_samples=0,
        )
        with pytest.raises(InvariantViolation, match="wal-replay"):
            run_scenario(scenario)
        result = run_scenario(scenario, raise_on_violation=False)
        assert not result.ok
        assert [c.name for c in result.checks if not c.passed] == ["wal-replay"]
