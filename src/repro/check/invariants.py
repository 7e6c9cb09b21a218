"""Chaos scenario harness: named fault schedules + service invariants.

The durability layer (:mod:`repro.service.journal`) and the
control-plane fault kinds (``service_crash`` / ``provision_fail`` /
``domain_loss``) each come with local unit tests, but the property the
ROADMAP actually cares about is global: *under any supported fault
schedule, the online service neither loses nor duplicates a request,
its books balance, and recovery from the WAL is exactly-once*.  This
module states that property as executable invariants and packages the
interesting fault schedules as named :class:`ChaosScenario`\\ s
(``repro chaos`` on the CLI, the chaos-smoke CI lane, and
``benchmarks/bench_chaos_service.py`` all drive the same runner).

Invariants checked per scenario:

- **conservation** — every offered request is served, shed, or
  dead-lettered; nothing vanishes.
- **unique-disposition** — the served / shed / dead-letter id sets are
  pairwise disjoint and internally duplicate-free (a request served
  twice, or served *and* dead-lettered, is an exactly-once bug).
- **ledger** — the resilience counters balance the report:
  ``dead_letters`` equals the abandoned count and the per-cause
  breakdown sums to it.
- **wal-replay** — replaying the write-ahead log through
  :class:`~repro.service.journal.ReplayState` reproduces the final
  report's accounting byte-for-byte (same ids, same pool
  node-seconds), so the journal alone is sufficient state.
- **checker-clean** — every dispatched ensemble runs under a fresh
  :class:`~repro.check.checker.CollectiveChecker`; a protocol
  violation in any wave fails the scenario.
- **exactly-once** — crash the control plane at sampled WAL indices
  and recover; every recovered run must reach the *identical*
  disposition for every request as the uncrashed run, and count the
  same crashes, domain losses and provisioning failures.

A failed invariant raises :class:`~repro.errors.InvariantViolation`
naming every failed check (or, with ``raise_on_violation=False``,
returns the findings for the caller to render).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvariantViolation, JournalCrash, ProtocolError
from repro.machine.presets import generic_cluster
from repro.machine.model import KiB, MachineModel
from repro.machine.topology import FaultDomains
from repro.records import Record
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service.report import ServiceReport


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault schedule plus the service it runs against.

    Every scenario runs the same service: Poisson traffic at 0.05/s on
    an elastic pool of 1–8 nodes (20 s provisioning, 120 s idle
    reclaim), domain-spread placement and WAL resume.  The machine is
    deliberately memory-tight (96 KiB/rank on the generic cluster): the
    small-test workload then needs multiple nodes per member, so the
    elastic pool must actually grow — otherwise ``provision_fail``
    never fires and ``domain_loss`` can never hit a live job.
    """

    name: str
    description: str
    plan: FaultPlan
    horizon_s: float = 1200.0
    seed: int = 7
    crash_samples: int = 3
    #: WAL snapshot cadence of every run, crashed or not
    snapshot_interval: ClassVar[int] = 9

    def machine(self) -> MachineModel:
        """The fault-domain-annotated, memory-tight test cluster."""
        return dataclasses.replace(
            generic_cluster(n_nodes=8),
            mem_per_rank_bytes=float(96 * KiB),
            fault_domains=FaultDomains(nodes_per_domain=2),
        )

    def build(self, *, journal=None, telemetry=None, monitor=None):
        """A fresh :class:`~repro.service.loop.OnlineService` for one run."""
        from repro.cgyro.presets import small_test
        from repro.check.checker import CollectiveChecker
        from repro.service.loop import OnlineService
        from repro.service.window import WindowPolicy
        from repro.service.traffic import PoissonTraffic

        workload = [small_test(), small_test(nu=0.2)]
        return OnlineService(
            self.machine(),
            PoissonTraffic(workload, rate_per_s=0.05, seed=self.seed),
            window=WindowPolicy(max_hold_s=30.0, min_batch=2),
            min_nodes=1,
            max_nodes=8,
            provision_delay_s=20.0,
            idle_reclaim_s=120.0,
            journal=journal,
            chaos=self.plan,
            recovery="resume",
            spread_domains=True,
            checker_factory=CollectiveChecker,
            telemetry=telemetry,
            monitor=monitor,
        )


@dataclass(frozen=True)
class InvariantCheck(Record):
    """One invariant's verdict for one scenario."""

    name: str
    passed: bool
    detail: str


@dataclass
class ChaosReport(Record):
    """Everything one scenario run established (``to_dict`` is
    byte-stable under ``sort_keys``)."""

    scenario: str
    checks: List[InvariantCheck] = field(default_factory=list)
    n_wal_events: int = 0
    crash_indices: Tuple[int, ...] = ()
    #: the uncrashed run's report
    report: Optional[ServiceReport] = None

    record_derived = ("ok",)

    @property
    def ok(self) -> bool:
        """True iff every invariant passed."""
        return all(c.passed for c in self.checks)


def _disposition_ids(report) -> Dict[str, List[str]]:
    """Request ids by final disposition, sorted for stable comparison."""
    return {
        "served": sorted(s.request_id for s in report.served),
        "shed": sorted(r.request_id for r in report.rejections),
        "dead": sorted(a.request_id for a in report.abandoned),
    }


def replay_matches_report(replayed, report) -> bool:
    """True iff a replayed :class:`~repro.service.journal.ReplayState`
    carries the report's books: the same served / shed / dead id sets,
    the same offered count, the same pool node-seconds to the bit (the
    fold is the run's one integrator).  The ``wal-replay`` check and
    the WAL negative controls (``tests/test_service_wal.py``) share
    this comparison."""
    replay_ids = {
        "served": sorted(str(s["request_id"]) for s in replayed.served),
        "shed": sorted(str(r["request_id"]) for r in replayed.rejections),
        "dead": sorted(str(a["request_id"]) for a in replayed.abandoned),
    }
    return (
        replay_ids == _disposition_ids(report)
        and replayed.offered == report.offered
        and replayed.pool["node_seconds"] == report.pool_node_seconds
    )


#: Fault counts a recovery must keep: each fault fires once, crash or not.
_FAULT_COUNTS = ("crashes", "domain_losses", "provision_failures")


def recovery_matches(recovered, report) -> Tuple[bool, str]:
    """The ``exactly-once`` verdict ``(ok, detail)``: the recovered
    run's report keeps the uncrashed ``report``'s disposition of every
    request, its offered load and its fault counts, and conserves."""
    got, want = (
        dict(
            _disposition_ids(r),
            offered=r.offered,
            **{k: int(r.resilience.get(k, 0)) for k in _FAULT_COUNTS},
        )
        for r in (recovered, report)
    )
    drift = {
        k: sorted(set(got[k]) ^ set(v))[:4] if isinstance(v, list) else [v, got[k]]
        for k, v in want.items()
        if got[k] != v
    }
    conserved = recovered.n_served + recovered.n_shed + recovered.n_abandoned
    detail = (
        "disposition drift: " + json.dumps(drift, sort_keys=True)
        if drift
        else "identical dispositions after recovery"
    )
    return not drift and conserved == recovered.offered, detail


def _crash_indices(n_events: int, samples: int) -> Tuple[int, ...]:
    """``samples`` crash points spread across the WAL (never index 0:
    crashing before the ``begin`` event is an empty journal, which is
    a cold start, not a recovery)."""
    if n_events < 2 or samples <= 0:
        return ()
    picks = sorted(
        {
            max(1, min(n_events - 1, (i + 1) * n_events // (samples + 1)))
            for i in range(samples)
        }
    )
    return tuple(picks)


def run_scenario(
    scenario: ChaosScenario,
    *,
    telemetry=None,
    raise_on_violation: bool = True,
) -> ChaosReport:
    """Run one chaos scenario and check every service invariant.

    Runs the scenario once journaled end-to-end, audits the books,
    replays the WAL, then crashes the control plane at
    ``scenario.crash_samples`` sampled WAL indices and verifies each
    recovery reaches the identical per-request disposition.
    """
    from repro.service.journal import ServiceJournal, recover_service

    out = ChaosReport(scenario=scenario.name)
    checks = out.checks

    def check(name: str, passed: bool, detail: str) -> None:
        checks.append(InvariantCheck(name=name, passed=passed, detail=detail))
        if telemetry is not None:
            telemetry.metrics.counter(
                "chaos_invariants_total",
                scenario=scenario.name,
                check=name,
                passed=str(passed).lower(),
            ).inc()

    journal = ServiceJournal(snapshot_interval=scenario.snapshot_interval)
    protocol_error: Optional[ProtocolError] = None
    try:
        report = scenario.build(
            journal=journal, telemetry=telemetry
        ).run(scenario.horizon_s)
    except ProtocolError as exc:  # pragma: no cover - checker is clean
        protocol_error = exc
        report = None
    check(
        "checker-clean",
        protocol_error is None,
        "every wave's collective schedule conformed"
        if protocol_error is None
        else f"protocol violation: {protocol_error}",
    )
    if report is None:  # pragma: no cover - checker is clean
        if raise_on_violation:
            raise InvariantViolation(
                f"chaos scenario {scenario.name!r}: checker-clean failed "
                f"({protocol_error})"
            )
        return out
    out.report = report
    out.n_wal_events = len(journal)

    # -- conservation: nothing vanishes -------------------------------
    accounted = report.n_served + report.n_shed + report.n_abandoned
    check(
        "conservation",
        accounted == report.offered,
        f"offered={report.offered} served={report.n_served} "
        f"shed={report.n_shed} dead={report.n_abandoned}",
    )

    # -- unique disposition: nothing duplicated -----------------------
    base_ids = _disposition_ids(report)
    flat = base_ids["served"] + base_ids["shed"] + base_ids["dead"]
    check(
        "unique-disposition",
        len(flat) == len(set(flat)),
        f"{len(set(flat))} unique ids across {len(flat)} dispositions",
    )

    # -- ledger: the resilience counters balance the report -----------
    resil = report.resilience or {}
    deads_ok = int(resil.get("dead_letters", 0)) == report.n_abandoned
    by_cause = resil.get("dead_letters_by_cause", {})
    cause_ok = sum(by_cause.values()) == int(resil.get("dead_letters", 0))
    check(
        "ledger",
        deads_ok and cause_ok,
        f"dead_letters={resil.get('dead_letters', 0)} "
        f"abandoned={report.n_abandoned} by_cause={dict(by_cause)}",
    )

    # -- WAL replay reproduces the books ------------------------------
    replayed = ServiceJournal.replay(journal.events)
    if replayed is None:  # pragma: no cover - journaled run always logs
        check("wal-replay", False, "journal is empty")
    else:
        busy_ok = (
            report.pool_node_seconds + 1e-6 >= report.busy_node_seconds
        )
        check(
            "wal-replay",
            replay_matches_report(replayed, report) and busy_ok,
            f"replayed {out.n_wal_events} events: offered "
            f"{replayed.offered}/{report.offered}, pool node-seconds "
            f"{replayed.pool['node_seconds']:.3f}/"
            f"{report.pool_node_seconds:.3f} "
            f"(busy {report.busy_node_seconds:.3f})",
        )

    # -- exactly-once: crash anywhere, recover to the same books ------
    out.crash_indices = _crash_indices(
        out.n_wal_events, scenario.crash_samples
    )
    for k in out.crash_indices:
        crashed = ServiceJournal(
            snapshot_interval=scenario.snapshot_interval, crash_at_event=k
        )
        try:
            scenario.build(journal=crashed).run(scenario.horizon_s)
            check(
                f"exactly-once@{k}",
                False,
                "crash injection did not fire",
            )  # pragma: no cover - injection always fires below len
            continue
        except JournalCrash:
            pass
        recovered = recover_service(
            scenario.build(), crashed, horizon_s=scenario.horizon_s
        )
        check(f"exactly-once@{k}", *recovery_matches(recovered, report))

    if telemetry is not None:
        telemetry.tracer.record(
            f"chaos:{scenario.name}",
            "recovery",
            0.0,
            scenario.horizon_s,
            category="chaos",
            ok=out.ok,
            n_wal_events=out.n_wal_events,
        )
    if raise_on_violation and not out.ok:
        failures = [c for c in out.checks if not c.passed]
        raise InvariantViolation(
            f"chaos scenario {scenario.name!r} violated "
            f"{len(failures)} invariant(s): "
            + "; ".join(f"{c.name} ({c.detail})" for c in failures)
        )
    return out


def builtin_scenarios(*, smoke: bool = False) -> Tuple[ChaosScenario, ...]:
    """The named fault schedules the CLI and CI lane run.

    ``smoke`` shrinks horizons and the crash sweep for CI wall-clock;
    the schedules themselves are identical.
    """
    horizon = 600.0 if smoke else 1200.0
    samples = 2 if smoke else 3

    def scaled(at_s: float) -> float:
        return at_s * (horizon / 1200.0)

    return (
        ChaosScenario(
            name="crash-resume",
            description=(
                "one mid-horizon control-plane crash; WAL resume must "
                "requeue in-flight waves without double-serving"
            ),
            plan=FaultPlan(
                specs=(
                    FaultSpec(
                        kind="service_crash",
                        at_step=0,
                        at_s=scaled(300.0),
                        duration_s=60.0,
                    ),
                )
            ),
            horizon_s=horizon,
            crash_samples=samples,
        ),
        ChaosScenario(
            name="rack-loss",
            description=(
                "a whole fault domain dies mid-run and returns later; "
                "domain-spread placement must shrink-and-recover"
            ),
            plan=FaultPlan(
                specs=(
                    FaultSpec(
                        kind="domain_loss",
                        at_step=0,
                        node=1,
                        at_s=scaled(250.0),
                        duration_s=scaled(300.0),
                    ),
                )
            ),
            horizon_s=horizon,
            crash_samples=samples,
        ),
        ChaosScenario(
            name="provision-stall",
            description=(
                "the node provider refuses one grow and stalls the "
                "next; queues must drain once capacity arrives"
            ),
            plan=FaultPlan(
                specs=(
                    FaultSpec(
                        kind="provision_fail",
                        at_step=0,
                        at_s=0.0,
                        duration_s=0.0,
                    ),
                    FaultSpec(
                        kind="provision_fail",
                        at_step=0,
                        at_s=scaled(150.0),
                        duration_s=60.0,
                    ),
                )
            ),
            horizon_s=horizon,
            crash_samples=samples,
        ),
        ChaosScenario(
            name="kitchen-sink",
            description=(
                "crash + rack loss + provision stall in one horizon; "
                "the full correlated-failure gauntlet"
            ),
            plan=FaultPlan(
                specs=(
                    FaultSpec(
                        kind="service_crash",
                        at_step=0,
                        at_s=scaled(200.0),
                        duration_s=60.0,
                    ),
                    FaultSpec(
                        kind="domain_loss",
                        at_step=0,
                        node=2,
                        at_s=scaled(400.0),
                        duration_s=scaled(200.0),
                    ),
                    FaultSpec(
                        kind="provision_fail",
                        at_step=0,
                        at_s=scaled(500.0),
                        duration_s=45.0,
                    ),
                )
            ),
            horizon_s=horizon,
            crash_samples=samples,
        ),
    )


def render_chaos_report(results: Sequence[ChaosReport]) -> str:
    """A human-readable table over one or more scenario runs."""
    lines = ["chaos scenario results"]
    for res in results:
        rep = res.report
        lines.append(
            f"  {res.scenario:<16} "
            + ("PASS" if res.ok else "FAIL")
            + (
                f"  wal={res.n_wal_events:<4} "
                f"served={rep.n_served} shed={rep.n_shed} "
                f"dead={rep.n_abandoned} "
                f"slo={100.0 * rep.slo_attainment:.1f}%"
                if rep is not None
                else ""
            )
        )
        for c in res.checks:
            mark = "ok " if c.passed else "XXX"
            lines.append(f"    [{mark}] {c.name:<16} {c.detail}")
    return "\n".join(lines)
