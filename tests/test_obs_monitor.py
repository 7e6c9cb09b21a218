"""The live monitoring plane: rollups, alerts, incident diagnosis.

The acceptance property is at the top: monitoring is *invisible* —
running any chaos schedule with the monitor attached yields a service
report byte-identical (monitoring block aside) to the same schedule
without it.  The rest pins the three layers: exact windowed rollups
and their JSONL format, the alert rule engine's lifecycle on synthetic
series, and cause attribution on the builtin fault schedules.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cgyro.presets import small_test
from repro.check.invariants import builtin_scenarios
from repro.errors import ReproError
from repro.machine.model import KiB
from repro.machine.presets import generic_cluster
from repro.machine.topology import FaultDomains
from repro.obs import Telemetry
from repro.obs.monitor import (
    AlertEngine,
    AlertRule,
    ServiceMonitor,
    WindowRollup,
    _cause_signals,
    default_rulebook,
    dump_rulebook,
    export_rollups_jsonl,
    load_rollups_jsonl,
    load_rulebook,
    render_monitor_report,
)
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service.loop import OnlineService
from repro.service.traffic import PoissonTraffic
from repro.service.window import WindowPolicy

SCENARIOS = builtin_scenarios(smoke=True)


def _run(name, monitor=None):
    """One smoke chaos schedule, with or without the monitor."""
    scenario = next(s for s in SCENARIOS if s.name == name)
    telemetry = Telemetry()
    service = scenario.build(telemetry=telemetry, monitor=monitor)
    report = service.run(scenario.horizon_s)
    return report, telemetry


def _mk(index, **metrics):
    """Synthetic rollup for engine unit tests (60 s windows)."""
    return WindowRollup(
        index=index,
        t_start=60.0 * index,
        t_end=60.0 * (index + 1),
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# the acceptance property: zero model impact
# ----------------------------------------------------------------------
class TestInvisibility:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario_index=st.integers(min_value=0, max_value=len(SCENARIOS) - 1),
        window_s=st.sampled_from([45.0, 60.0, 150.0]),
    )
    def test_dispositions_identical_monitor_on_or_off(
        self, scenario_index, window_s
    ):
        name = SCENARIOS[scenario_index].name
        bare, _ = _run(name)
        monitored, _ = _run(name, monitor=ServiceMonitor(window_s=window_s))
        a = bare.to_dict()
        b = monitored.to_dict()
        assert a.pop("monitoring") == {}
        assert b.pop("monitoring") != {}
        assert a == b

    def test_monitor_never_pushes_events(self):
        # the loop's event sequence counter is the tie-break for
        # simultaneous events: identical final values mean the monitor
        # added nothing to the heap
        scenario = SCENARIOS[0]
        bare = scenario.build(telemetry=Telemetry())
        bare.run(scenario.horizon_s)
        mon = scenario.build(
            telemetry=Telemetry(), monitor=ServiceMonitor()
        )
        mon.run(scenario.horizon_s)
        assert bare._seq == mon._seq


# ----------------------------------------------------------------------
# layer 1: streaming rollups
# ----------------------------------------------------------------------
class TestRollups:
    @pytest.fixture(scope="class")
    def monitored(self):
        monitor = ServiceMonitor(window_s=60.0)
        report, telemetry = _run("crash-resume", monitor=monitor)
        return report, telemetry, monitor

    def test_windows_tile_the_run(self, monitored):
        report, _, monitor = monitored
        rollups = monitor.rollups
        assert rollups, "no windows closed"
        assert rollups[0].t_start == 0.0
        for prev, cur in zip(rollups, rollups[1:]):
            assert cur.t_start == prev.t_end
            assert cur.index == prev.index + 1
        assert rollups[-1].t_end == pytest.approx(report.duration_s)

    def test_window_deltas_sum_to_report_totals(self, monitored):
        report, _, monitor = monitored
        total = lambda key: sum(r.metrics[key] for r in monitor.rollups)
        assert total("arrivals") == report.offered
        assert total("completions") == report.n_served
        assert total("shed") == report.n_shed
        assert total("crashes") == report.resilience["crashes"]

    def test_instantaneous_gauges_present(self, monitored):
        _, _, monitor = monitored
        for r in monitor.rollups:
            for key in (
                "queue_depth",
                "pool_provisioned",
                "pool_busy",
                "pool_utilisation",
                "ttr_p50_s",
                "ttr_p99_s",
                "domain_wait_max_s",
            ):
                assert key in r.metrics

    def test_empty_window_quantiles_are_nan_then_null(self, monitored):
        _, _, monitor = monitored
        empty = [
            r for r in monitor.rollups if r.metrics["completions"] == 0
        ]
        assert empty, "expected at least one completion-free window"
        r = empty[0]
        assert r.metrics["ttr_p50_s"] != r.metrics["ttr_p50_s"]
        assert r.to_dict()["metrics"]["ttr_p50_s"] is None

    def test_jsonl_round_trip_is_byte_stable(self, monitored, tmp_path):
        _, _, monitor = monitored
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        n = export_rollups_jsonl(monitor.rollups, p1)
        assert n == len(monitor.rollups)
        loaded = load_rollups_jsonl(p1)
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in monitor.rollups
        ]
        export_rollups_jsonl(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsonl_header_first(self, monitored, tmp_path):
        _, _, monitor = monitored
        p = tmp_path / "r.jsonl"
        export_rollups_jsonl(monitor.rollups, p)
        first = json.loads(p.read_text().splitlines()[0])
        assert first == {"format": "repro-rollups-v1"}

    def test_summary_lands_on_the_report(self, monitored):
        report, _, monitor = monitored
        assert report.monitoring == monitor.summary()
        assert report.monitoring["format"] == "repro-monitor-v1"
        assert report.to_dict()["monitoring"] == report.monitoring

    def test_repeat_run_summary_is_byte_identical(self, monitored):
        report, _, _ = monitored
        again, _ = _run("crash-resume", monitor=ServiceMonitor(window_s=60.0))
        dumps = lambda s: json.dumps(s, sort_keys=True)
        assert dumps(again.monitoring) == dumps(report.monitoring)


# ----------------------------------------------------------------------
# layer 2: rules and the engine
# ----------------------------------------------------------------------
class TestAlertRule:
    def test_round_trip(self):
        for rule in default_rulebook():
            assert AlertRule.from_dict(rule.to_dict()) == rule

    def test_unknown_fields_rejected(self):
        with pytest.raises(ReproError, match=r"AlertRule: .*unknown key\(s\) \['bogus'\]"):
            AlertRule.from_dict({"name": "x", "kind": "threshold",
                                 "metric": "m", "bogus": 1})

    def test_validation(self):
        with pytest.raises(ReproError, match="kind"):
            AlertRule(name="x", kind="nope", metric="m")
        with pytest.raises(ReproError, match="num and den"):
            AlertRule(name="x", kind="burn_rate")
        with pytest.raises(ReproError, match="names no metric"):
            AlertRule(name="x", kind="threshold")
        with pytest.raises(ReproError, match="direction"):
            AlertRule(name="x", kind="anomaly", metric="m",
                      direction="sideways")
        with pytest.raises(ReproError, match="for_windows"):
            AlertRule(name="x", kind="threshold", metric="m",
                      for_windows=0)
        with pytest.raises(ReproError, match="fast_windows"):
            AlertRule(name="x", kind="burn_rate", num="a", den="b",
                      fast_windows=4, slow_windows=2)

    def test_rulebook_file_round_trip(self, tmp_path):
        p = tmp_path / "rules.json"
        dump_rulebook(default_rulebook(), p)
        assert load_rulebook(p) == default_rulebook()

    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule(name="dup", kind="threshold", metric="m")
        with pytest.raises(ReproError, match="duplicate"):
            AlertEngine([rule, rule])


class TestAlertEngine:
    def test_threshold_fires_and_resolves(self):
        engine = AlertEngine(
            [AlertRule(name="t", kind="threshold", metric="crashes")]
        )
        series = [_mk(0, crashes=0.0)]
        assert engine.evaluate(series) == []
        series.append(_mk(1, crashes=1.0))
        events = engine.evaluate(series)
        assert [(e.state, e.t_s) for e in events] == [("fired", 120.0)]
        assert engine.firing == ("t",)
        series.append(_mk(2, crashes=0.0))
        events = engine.evaluate(series)
        assert [e.state for e in events] == ["resolved"]
        assert engine.firing == ()

    def test_for_windows_needs_a_streak(self):
        engine = AlertEngine(
            [AlertRule(name="t", kind="threshold", metric="q",
                       threshold=5.0, for_windows=2)]
        )
        series = [_mk(0, q=9.0)]
        assert engine.evaluate(series) == []  # streak 1 of 2
        series.append(_mk(1, q=0.0))
        assert engine.evaluate(series) == []  # streak broken
        series.append(_mk(2, q=9.0))
        assert engine.evaluate(series) == []
        series.append(_mk(3, q=9.0))
        assert [e.state for e in engine.evaluate(series)] == ["fired"]

    def test_burn_rate_needs_fast_and_slow(self):
        rule = AlertRule(
            name="b", kind="burn_rate", num="slo_misses",
            den="completions", budget=0.05, fast_windows=1,
            slow_windows=4, fast_burn=8.0, slow_burn=2.0,
        )
        engine = AlertEngine([rule])
        # a single hot window after a long clean stretch: fast burn is
        # huge but the slow window has not burned enough budget yet
        series = [
            _mk(i, slo_misses=0.0, completions=100.0) for i in range(3)
        ]
        series.append(_mk(3, slo_misses=20.0, completions=100.0))
        assert engine.evaluate(series) == []
        # sustained burn: both windows cross their factors
        series.append(_mk(4, slo_misses=60.0, completions=100.0))
        events = engine.evaluate(series)
        assert [e.state for e in events] == ["fired"]
        assert "burn" in events[0].detail

    def test_burn_rate_empty_denominator_is_quiet(self):
        rule = AlertRule(name="b", kind="burn_rate", num="shed",
                         den="arrivals", budget=0.02)
        engine = AlertEngine([rule])
        assert engine.evaluate([_mk(0)]) == []

    def test_anomaly_fires_above_history(self):
        rule = AlertRule(
            name="a", kind="anomaly", metric="queue_depth",
            mad_threshold=4.0, min_history=3, min_value=4.0,
        )
        engine = AlertEngine([rule])
        series = []
        for i, depth in enumerate([2.0, 3.0, 2.0, 3.0]):
            series.append(_mk(i, queue_depth=depth))
            assert engine.evaluate(series) == []  # warming up / in band
        series.append(_mk(4, queue_depth=40.0))
        events = engine.evaluate(series)
        assert [e.state for e in events] == ["fired"]
        assert "median" in events[0].detail

    def test_anomaly_min_value_suppresses_tiny_spikes(self):
        rule = AlertRule(
            name="a", kind="anomaly", metric="queue_depth",
            mad_threshold=1.0, min_history=3, min_value=50.0,
        )
        engine = AlertEngine([rule])
        series = [_mk(i, queue_depth=1.0) for i in range(4)]
        series.append(_mk(4, queue_depth=10.0))  # anomalous but small
        assert engine.evaluate(series) == []

    def test_anomaly_below_direction(self):
        rule = AlertRule(
            name="a", kind="anomaly", metric="cache_hit_rate",
            direction="below", mad_threshold=3.0, rel_floor=0.1,
            min_history=3,
        )
        engine = AlertEngine([rule])
        series = [_mk(i, cache_hit_rate=0.9) for i in range(4)]
        assert engine.evaluate(series) == []
        series.append(_mk(4, cache_hit_rate=0.05))
        assert [e.state for e in engine.evaluate(series)] == ["fired"]

    def test_gated_windows_hold_state_and_skip_history(self):
        rule = AlertRule(
            name="a", kind="anomaly", metric="cache_hit_rate",
            direction="below", mad_threshold=3.0, rel_floor=0.1,
            min_history=3, gate_metric="cache_lookups", gate_min=0.5,
        )
        engine = AlertEngine([rule])
        series = [
            _mk(i, cache_hit_rate=0.9, cache_lookups=10.0)
            for i in range(4)
        ]
        series.append(_mk(4, cache_hit_rate=0.05, cache_lookups=10.0))
        assert [e.state for e in engine.evaluate(series)] == ["fired"]
        # an idle window (no lookups) must not resolve the alert
        series.append(_mk(5, cache_hit_rate=float("nan"),
                          cache_lookups=0.0))
        assert engine.evaluate(series) == []
        assert engine.firing == ("a",)
        # traffic returns and the rate recovers: now it resolves
        series.append(_mk(6, cache_hit_rate=0.9, cache_lookups=10.0))
        assert [e.state for e in engine.evaluate(series)] == ["resolved"]


# ----------------------------------------------------------------------
# layer 3: diagnosis
# ----------------------------------------------------------------------
class TestCauseSignals:
    def test_most_recent_signal_wins(self):
        look = [
            _mk(0, domain_losses=1.0),
            _mk(1),
            _mk(2, provision_failures=1.0),
        ]
        best = max(_cause_signals(look))
        assert best[2] == "provision_stall"

    def test_same_window_ties_fall_to_blast_radius(self):
        look = [_mk(0, crashes=1.0, domain_losses=1.0)]
        best = max(_cause_signals(look))
        assert best[2] == "service_crash"

    def test_no_signal_is_empty(self):
        assert _cause_signals([_mk(0, arrivals=5.0)]) == []

    def test_backpressure_excludes_downtime_shed(self):
        # shed while the control plane was down is the crash's fault,
        # not admission backpressure
        down = [_mk(0, shed=3.0, downtime_shed=3.0)]
        assert all(
            c[2] != "admission_backpressure" for c in _cause_signals(down)
        )
        up = [_mk(0, shed=3.0, downtime_shed=0.0)]
        assert any(
            c[2] == "admission_backpressure" for c in _cause_signals(up)
        )


class TestDiagnosisOnSchedules:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("crash-resume", "service_crash"),
            ("rack-loss", "domain_loss"),
            ("provision-stall", "provision_stall"),
        ],
    )
    def test_single_fault_schedules_name_their_cause(self, name, expected):
        monitor = ServiceMonitor(window_s=60.0)
        _run(name, monitor=monitor)
        assert monitor.incidents, f"no incident diagnosed for {name}"
        assert {i.cause for i in monitor.incidents} == {expected}

    def test_kitchen_sink_attributes_in_fault_order(self):
        monitor = ServiceMonitor(window_s=60.0)
        _run("kitchen-sink", monitor=monitor)
        causes = [i.cause for i in monitor.incidents]
        assert "service_crash" in causes
        assert "domain_loss" in causes
        # the rack loss happens after the crash; once it lands, the
        # most-recent-signal policy must stop blaming the crash
        assert causes.index("domain_loss") > causes.index("service_crash")

    def test_incidents_carry_evidence_spans(self):
        monitor = ServiceMonitor(window_s=60.0)
        _run("crash-resume", monitor=monitor)
        inc = monitor.incidents[0]
        names = [s["name"] for s in inc.evidence["spans"]]
        assert "service.crash" in names
        assert inc.narrative.startswith("inc001: ")
        assert "service_crash" in inc.narrative

    def test_incident_dicts_are_json_stable(self):
        monitor = ServiceMonitor(window_s=60.0)
        _run("crash-resume", monitor=monitor)
        for inc in monitor.incidents:
            d = inc.to_dict()
            assert json.loads(json.dumps(d, sort_keys=True)) == d


# ----------------------------------------------------------------------
# wiring: marker spans, report rendering
# ----------------------------------------------------------------------
class TestWiring:
    def test_marker_spans_record_control_plane_faults(self):
        _, telemetry = _run(
            "crash-resume", monitor=ServiceMonitor(window_s=60.0)
        )
        markers = [
            s for s in telemetry.tracer.spans if s.kind == "marker"
        ]
        names = {s.name for s in markers}
        assert "service.crash" in names
        assert all(s.duration == 0.0 for s in markers)

    def test_marker_spans_emitted_without_monitor_too(self):
        _, telemetry = _run("rack-loss")
        names = {
            s.name for s in telemetry.tracer.spans if s.kind == "marker"
        }
        assert "service.domain_loss" in names

    def test_monitor_requires_telemetry(self):
        from repro.errors import ServiceError

        scenario = SCENARIOS[0]
        with pytest.raises(ServiceError, match="telemetry"):
            scenario.build(monitor=ServiceMonitor())

    def test_bind_rejects_foreign_telemetry(self):
        monitor = ServiceMonitor()
        monitor.bind(Telemetry())
        with pytest.raises(ReproError, match="different telemetry"):
            monitor.bind(Telemetry())

    def test_render_monitor_report_off(self):
        assert render_monitor_report({}) == "monitoring: off\n"

    def test_render_timeline(self):
        report, _ = _run(
            "crash-resume", monitor=ServiceMonitor(window_s=60.0)
        )
        text = render_monitor_report(report.monitoring)
        assert "FIRED" in text
        assert "resolved" in text
        assert "control-crash" in text


class TestDomainWait:
    """``campaign_domain_imposed_wait_seconds_total`` at both ends: the
    campaign runner writes it per fault domain, the monitor's
    ``domain_wait_max_s`` (which the default rulebook's anomaly rule
    reads) is its largest per-window delta."""

    @staticmethod
    def _run(window_s):
        machine = dataclasses.replace(
            generic_cluster(n_nodes=4), mem_per_rank_bytes=96.0 * KiB,
            fault_domains=FaultDomains(nodes_per_domain=2),
        )
        stragglers = {node: FaultPlan(specs=(FaultSpec("slowdown", at_step=0, rank=0,
                                                       factor=factor),))
                      for node, factor in ((0, 2.0), (2, 4.0))}
        tele, monitor = Telemetry(), ServiceMonitor(window_s=window_s)
        service = OnlineService(
            machine, PoissonTraffic([small_test()], rate_per_s=0.05, seed=3),
            window=WindowPolicy(max_hold_s=30.0, min_batch=2), min_nodes=4, max_nodes=4,
            node_faults=stragglers, telemetry=tele, monitor=monitor,
        )
        worlds = []
        book = service.runner._finish_job_telemetry

        def spy(job, world):
            worlds.append((job.nodes, world.placement, world.imposed_wait_s.copy()))
            book(job, world)

        service.runner._finish_job_telemetry = spy
        service.run(600.0)
        counters = {dict(key).get("domain"): value for name, key, _, value in tele.metrics
                    if name == "campaign_domain_imposed_wait_seconds_total"}
        return worlds, counters, monitor.rollups, tele.metrics

    def test_counter_is_each_domains_share_of_the_imposed_wait(self):
        worlds, counters, _, metrics = self._run(60.0)
        share = {}
        for nodes, placement, waits in worlds:
            for rank, wait in enumerate(waits):
                domain = str(nodes[placement.node_of(rank)] // 2)
                share[domain] = share.get(domain, 0.0) + float(wait)
        assert set(counters) == {"0", "1"}  # one straggler in each domain
        assert counters == pytest.approx({d: w for d, w in share.items() if w > 0})
        (total,) = [v for n, _, _, v in metrics if n == "campaign_imposed_wait_seconds_total"]
        assert sum(counters.values()) == pytest.approx(total)

    def test_rollup_domain_wait_max_is_the_largest_domain(self):
        _, counters, rollups, _ = self._run(1000.0)
        (whole,) = rollups  # one window spans the run
        assert whole.domains == pytest.approx(counters)
        assert whole.metrics["domain_wait_max_s"] == max(counters.values())
        _, _, windows, _ = self._run(60.0)
        assert len(windows) > 1
        for rollup in windows:
            assert rollup.metrics["domain_wait_max_s"] == max(rollup.domains.values(), default=0.0)
        for domain, total in counters.items():
            assert sum(r.domains.get(domain, 0.0) for r in windows) == pytest.approx(total)
