"""What does live monitoring buy?  Detection lead and true causes.

Without the monitoring plane every control-plane fault is discovered
*post-mortem*: the ServiceReport exists only after the horizon drains,
so the operator learns about a rack loss at t=250 s when the run ends.
The monitor pages while the service runs — this bench measures how
much earlier, and whether the automated diagnosis names the fault an
operator would have found by hand.

Scored on the four builtin chaos schedules (crash-resume, rack-loss,
provision-stall, kitchen-sink), all with the committed default
rulebook and 60 s windows:

- **detection lead** — for every injected control-plane fault that
  materializes (the kitchen-sink's provisioning stall, for example,
  only triggers if the pool actually asks to grow during the outage),
  there must be an incident with the matching cause fired *after* the
  fault lands and *before* the end of the run.  The lead is
  ``end_of_run - fired_at``: the head start monitoring gives over the
  post-mortem report.  Every materialized fault must have a strictly
  positive lead.
- **diagnosis accuracy** — a schedule is a *hit* when every
  materialized fault kind is named by at least one incident with the
  expected cause (service_crash -> service_crash, domain_loss ->
  domain_loss, provision_fail -> provision_stall).  At least 3 of the
  4 schedules must be hits.

The whole pipeline must be byte-stable across reruns, and monitoring
must remain invisible to the model (dispositions identical on/off —
the tier-1 hypothesis sweep proves this per-window-length; here we
spot-check at bench scale).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_monitor.py -s
    PYTHONPATH=src python -m pytest benchmarks/bench_monitor.py -s --smoke
"""

from __future__ import annotations

import json

import pytest

from repro.check import builtin_scenarios
from repro.obs import ServiceMonitor, Telemetry

#: Injected fault kind -> the cause a correct diagnosis names.
EXPECTED_CAUSE = {
    "service_crash": "service_crash",
    "domain_loss": "domain_loss",
    "provision_fail": "provision_stall",
}

#: Report resilience keys that prove a fault kind materialized.
MATERIALIZED = {
    "service_crash": ("crashes",),
    "domain_loss": ("domain_losses",),
    "provision_fail": ("provision_failures", "provision_stall_seconds"),
}

WINDOW_S = 60.0


@pytest.fixture(scope="module")
def runs(smoke):
    """Every builtin chaos schedule under the default rulebook."""
    out = {}
    for scenario in builtin_scenarios(smoke=smoke):
        monitor = ServiceMonitor(window_s=WINDOW_S)
        report = scenario.build(
            telemetry=Telemetry(), monitor=monitor
        ).run(scenario.horizon_s)
        out[scenario.name] = (scenario, report, monitor)
    return out


def _materialized_kinds(scenario, report):
    """Fault kinds of the plan that actually fired during the run."""
    resil = report.resilience or {}
    kinds = []
    for kind in {s.kind for s in scenario.plan.specs}:
        if any(resil.get(k, 0) for k in MATERIALIZED[kind]):
            kinds.append(kind)
    return sorted(kinds)


def _first_detection(scenario, monitor, kind):
    """Earliest incident naming ``kind``'s cause after it lands."""
    first_at = min(
        s.at_s for s in scenario.plan.specs if s.kind == kind
    )
    hits = [
        i
        for i in monitor.incidents
        if i.cause == EXPECTED_CAUSE[kind] and i.fired_at_s > first_at
    ]
    return min(hits, key=lambda i: i.fired_at_s) if hits else None


def test_positive_detection_lead_on_every_fault(runs, bench_json):
    """Each materialized fault pages strictly before the post-mortem."""
    leads = []
    rows = []
    for name, (scenario, report, monitor) in runs.items():
        for kind in _materialized_kinds(scenario, report):
            inc = _first_detection(scenario, monitor, kind)
            assert inc is not None, (
                f"{name}: no incident diagnosed "
                f"{EXPECTED_CAUSE[kind]!r} after the {kind} landed"
            )
            lead = report.duration_s - inc.fired_at_s
            leads.append(lead)
            rows.append(
                f"  {name:16s} {kind:14s} fired t={inc.fired_at_s:6.0f}s "
                f"({inc.alert}) lead {lead:6.1f} s"
            )
            assert lead > 0.0, f"{name}/{kind}: alert after end of run"
    assert leads, "no control-plane fault materialized anywhere"
    bench_json.record(
        "monitor",
        detection_lead_saved_s=sum(leads) / len(leads),
        min_detection_lead_saved_s=min(leads),
        faults_detected_attainment=1.0,
    )
    print("\ndetection lead (post-mortem vs page):")
    print("\n".join(rows))


def test_diagnosis_names_the_true_cause(runs, bench_json):
    """>= 3 of 4 schedules have every fault correctly attributed."""
    hits = 0
    rows = []
    for name, (scenario, report, monitor) in runs.items():
        wanted = {
            EXPECTED_CAUSE[k]
            for k in _materialized_kinds(scenario, report)
        }
        named = {i.cause for i in monitor.incidents}
        ok = wanted <= named
        hits += ok
        rows.append(
            f"  {name:16s} wanted {sorted(wanted)} named {sorted(named)} "
            f"{'HIT' if ok else 'miss'}"
        )
    rate = hits / len(runs)
    bench_json.record("monitor", diagnosis_hit_rate=rate)
    print("\ndiagnosis accuracy:")
    print("\n".join(rows))
    print(f"  hit rate: {hits}/{len(runs)}")
    assert rate >= 0.75


def test_alerts_resolve_when_faults_clear(runs):
    """No page left firing once its fault has passed (failed drill)."""
    for name, (_scenario, report, _monitor) in runs.items():
        assert report.monitoring.firing_at_end == (), name


def test_monitoring_is_invisible_at_bench_scale(runs, smoke):
    """Dispositions identical with the monitor detached."""
    scenario, monitored, _ = runs["kitchen-sink"]
    bare = scenario.build(telemetry=Telemetry()).run(scenario.horizon_s)
    a, b = bare.to_dict(), monitored.to_dict()
    assert a.pop("monitoring") == {}
    b.pop("monitoring")
    assert a == b


def test_monitoring_pipeline_is_byte_stable(runs):
    """Same schedule -> byte-identical summary, twice."""
    scenario, _, monitor = runs["crash-resume"]
    again = ServiceMonitor(window_s=WINDOW_S)
    scenario.build(telemetry=Telemetry(), monitor=again).run(
        scenario.horizon_s
    )
    dumps = lambda s: json.dumps(s.to_dict(), sort_keys=True)
    assert dumps(again.summary()) == dumps(monitor.summary())
