"""The live monitoring plane: rollups, alerts, incident diagnosis.

Everything the repo measures about the online service so far is
*post-mortem*: the :class:`~repro.service.report.ServiceReport` exists
only after the horizon drains, so a rack loss at t=250 s is invisible
until the run ends.  This module watches the service *while it runs*,
on the simulated clock, with zero model impact — the monitor never
pushes events, never mutates service state, and never reads a live
RNG, so per-request dispositions are bit-identical with monitoring on
or off.

Three layers, evaluated once per window:

1. **Streaming rollups** (:class:`WindowRollup`) — windowed deltas
   over the shared :class:`~repro.obs.metrics.MetricsRegistry` using
   the counter/histogram ``snapshot()/delta()`` protocol: arrivals,
   completions, shed/SLO-miss rates, exact p50/p99 TTR per window (no
   re-bucketing), queue depth, pool utilisation, cache hit rate, and
   per-fault-domain imposed wait.  Exported as a byte-stable JSONL
   time series (:func:`export_rollups_jsonl`).
2. **Alert rules** (:class:`AlertRule` / :class:`AlertEngine`) —
   declarative ``threshold`` rules, multi-window SLO **burn-rate**
   rules in the SRE fast/slow style (both the fast and the slow
   window must burn the error budget above their factors), and
   ``anomaly`` rules using the same rolling median+MAD statistic as
   the straggler detector (:func:`repro.resilience.health.robust_cutoff`)
   over the metric's own window history.  Rules carry a
   fired/resolved lifecycle; :func:`default_rulebook` is the committed
   rulebook for the service SLOs.
3. **Incident diagnosis** (:class:`IncidentReport`) — when a rule
   fires, the monitor walks the recent rollups, the node-health
   ledger, the resilience counters, and the live span tree
   (:meth:`~repro.obs.span.SpanTracer.open_spans`) and attributes the
   breach to a cause: ``service_crash``, ``domain_loss``,
   ``provision_stall``, ``node_slowdown``, ``cache_hit_collapse``,
   ``admission_backpressure``, or ``unknown``.  The most *recent*
   signal in the lookback wins (a rack loss three windows ago does
   not steal the blame from a provisioning stall this window); ties
   fall to the blast-radius order above.  Reports are byte-stable and
   name their evidence spans.

Wire-up: pass ``monitor=ServiceMonitor(...)`` to
:class:`~repro.service.loop.OnlineService` (telemetry required — the
rollups are deltas over its registry).  The service calls
:meth:`ServiceMonitor.begin` / :meth:`~ServiceMonitor.advance` /
:meth:`~ServiceMonitor.finish`; the finished summary lands on
``ServiceReport.monitoring`` and renders in the ``repro monitor`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import records
from repro.errors import ReproError
from repro.obs.metrics import HistogramSnapshot
from repro.resilience.health import robust_cutoff

#: JSONL header for rollup time series (one rollup per line).
ROLLUP_FORMAT = "repro-rollups-v1"
#: Format tag of the monitor summary.
MONITOR_FORMAT = "repro-monitor-v1"

#: Rollup key -> cumulative service counter it is the window delta of.
COUNTER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("arrivals", "service_arrivals_total"),
    ("completions", "service_completions_total"),
    ("shed", "service_shed_total"),
    ("slo_misses", "service_slo_miss_total"),
    ("retries", "service_retries_total"),
    ("dead_letters", "service_dead_letters_total"),
    ("dispatches", "service_dispatch_total"),
)

#: Rollup key -> resilience total of the service's WAL fold
#: (``ReplayState.resil``, the report's resilience block).
RESIL_METRICS: Tuple[Tuple[str, str], ...] = (
    ("crashes", "crashes"),
    ("domain_losses", "domain_losses"),
    ("provision_failures", "provision_failures"),
    ("provision_stall_s", "provision_stall_seconds"),
    ("downtime_shed", "downtime_shed"),
    ("recovery_s", "recovery_seconds"),
)

#: Labelled counter carrying per-fault-domain imposed collective wait
#: (charged by the campaign runner as jobs finish).
DOMAIN_WAIT_COUNTER = "campaign_domain_imposed_wait_seconds_total"

RULE_KINDS = ("threshold", "burn_rate", "anomaly")

#: Causes a diagnosis can name, in blast-radius (tie-break) order.
CAUSES = (
    "service_crash",
    "domain_loss",
    "provision_stall",
    "node_slowdown",
    "cache_hit_collapse",
    "admission_backpressure",
    "unknown",
)


# ----------------------------------------------------------------------
# layer 1: streaming rollups
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WindowRollup(records.Record):
    """One window's worth of service metrics.

    ``metrics`` is a flat name->float map (the alert rules' input);
    quantiles of an empty window are ``NaN`` in memory and ``null`` in
    JSON.  ``domains`` maps fault-domain id (as a string, JSON-style)
    to the collective wait imposed by that domain's nodes during the
    window.
    """

    index: int
    t_start: float
    t_end: float
    metrics: Dict[str, float] = field(default_factory=dict)
    domains: Dict[str, float] = field(default_factory=dict)

    record_nan_null = ("metrics",)


def export_rollups_jsonl(
    rollups: Sequence[WindowRollup], path: Union[str, Path]
) -> int:
    """Write the rollup time series as JSONL (header first); returns
    the rollup count.  Byte-stable: re-exporting a loaded file
    reproduces it exactly."""
    records.write_jsonl(
        path, (r.to_dict() for r in rollups), tag=ROLLUP_FORMAT
    )
    return len(rollups)


def load_rollups_jsonl(path: Union[str, Path]) -> List[WindowRollup]:
    """Inverse of :func:`export_rollups_jsonl`; anything else is a
    :class:`~repro.errors.ReproError` naming file, line and key."""
    return records.load_jsonl(
        WindowRollup, path, tag=ROLLUP_FORMAT, error=ReproError
    )


# ----------------------------------------------------------------------
# layer 2: alert rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlertRule(records.Record):
    """One declarative alert rule, evaluated once per closed window
    (one entry of a rulebook file; omitted keys take their defaults).

    Kinds
    -----
    ``threshold``
        Fires when ``metrics[metric] > threshold`` (windowed deltas,
        so a threshold of 0 means "any occurrence this window").
    ``burn_rate``
        SRE multi-window error-budget burn: the ratio
        ``sum(num) / sum(den)`` over the last ``fast_windows`` and the
        last ``slow_windows`` is divided by ``budget``; the rule
        breaches only when the fast burn is >= ``fast_burn`` *and*
        the slow burn is >= ``slow_burn`` (fast catches the step
        change, slow suppresses blips).
    ``anomaly``
        Rolling robust deviation over the metric's own history (the
        previous ``history_windows`` evaluable windows, at least
        ``min_history`` of them): breaches when the value leaves
        ``median ± mad_threshold * max(MAD, rel_floor * median)`` on
        the side named by ``direction``, and (for ``above``) exceeds
        ``min_value``.  Windows where ``gate_metric <= gate_min`` (or
        the value is NaN) neither evaluate nor enter history.

    ``for_windows`` consecutive breaches are required to fire; one
    clean window resolves.
    """

    name: str
    kind: str
    metric: str = ""
    description: str = ""
    severity: str = "page"
    for_windows: int = 1
    # threshold
    threshold: float = 0.0
    # burn_rate
    num: str = ""
    den: str = ""
    budget: float = 0.05
    fast_windows: int = 1
    slow_windows: int = 6
    fast_burn: float = 8.0
    slow_burn: float = 2.0
    # anomaly
    direction: str = "above"
    mad_threshold: float = 4.0
    rel_floor: float = 0.25
    history_windows: int = 8
    min_history: int = 3
    min_value: float = 0.0
    gate_metric: str = ""
    gate_min: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ReproError(
                f"rule kind must be one of {RULE_KINDS}, got {self.kind!r}"
            )
        if self.kind == "burn_rate":
            if not (self.num and self.den):
                raise ReproError(
                    f"burn_rate rule {self.name!r} needs num and den metrics"
                )
            if self.budget <= 0:
                raise ReproError(
                    f"burn_rate rule {self.name!r} needs a budget > 0"
                )
            if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
                raise ReproError(
                    f"rule {self.name!r}: need 1 <= fast_windows <= "
                    f"slow_windows"
                )
        elif not self.metric:
            raise ReproError(f"rule {self.name!r} names no metric")
        if self.direction not in ("above", "below"):
            raise ReproError(
                f"rule {self.name!r}: direction must be above|below"
            )
        if self.for_windows < 1:
            raise ReproError(f"rule {self.name!r}: for_windows must be >= 1")
        if self.min_history < 1:
            raise ReproError(f"rule {self.name!r}: min_history must be >= 1")


@dataclass(frozen=True)
class _Rulebook:
    """A rulebook document, as the record codec dumps and checks it."""

    rules: Tuple[AlertRule, ...]


def load_rulebook(path: Union[str, Path]) -> Tuple[AlertRule, ...]:
    """Read a JSON rulebook: ``{"rules": [{...}, ...]}``; anything else
    is a :class:`~repro.errors.ReproError` naming file and key."""
    return records.load_json(_Rulebook, path, error=ReproError).rules


def dump_rulebook(
    rules: Sequence[AlertRule], path: Union[str, Path]
) -> None:
    """Write a rulebook JSON (inverse of :func:`load_rulebook`)."""
    records.write_json(path, records.dump(_Rulebook(tuple(rules))), indent=2)


def default_rulebook() -> Tuple[AlertRule, ...]:
    """The committed rulebook for the online service's SLOs.

    Symptom rules first (SLO burn, shed burn, queue/TTR anomalies,
    cache-hit collapse, per-domain imposed wait) — these are what an
    operator pages on — then infra rules on the control-plane fault
    counters themselves (a crash, rack loss, or provisioning error is
    alertable the window it happens, exactly as a cloud provider's
    health feed would).
    """
    return (
        AlertRule(
            name="slo-burn", kind="burn_rate",
            num="slo_misses", den="completions", budget=0.05,
            fast_windows=1, slow_windows=6, fast_burn=8.0, slow_burn=2.0,
            description="SLO-miss rate burns >8x budget fast and >2x slow",
        ),
        AlertRule(
            name="shed-burn", kind="burn_rate",
            num="shed", den="arrivals", budget=0.02,
            fast_windows=1, slow_windows=6, fast_burn=8.0, slow_burn=2.0,
            description="admission sheds burn >8x the 2% shed budget",
        ),
        AlertRule(
            name="queue-depth", kind="anomaly", metric="queue_depth",
            mad_threshold=4.0, min_value=4.0,
            description="admitted-but-undispatched depth left its history",
        ),
        AlertRule(
            name="ttr-p99", kind="anomaly", metric="ttr_p99_s",
            mad_threshold=4.0,
            description="window p99 time-to-result left its history",
        ),
        AlertRule(
            name="cache-hit-collapse", kind="anomaly",
            metric="cache_hit_rate", direction="below",
            mad_threshold=3.0, rel_floor=0.1, min_history=4,
            gate_metric="cache_lookups", gate_min=0.5,
            description="cmat cache hit rate collapsed below its history",
        ),
        AlertRule(
            name="domain-wait", kind="anomaly",
            metric="domain_wait_max_s", mad_threshold=6.0, min_value=1.0,
            description="one fault domain imposes anomalous collective wait",
        ),
        AlertRule(
            name="control-crash", kind="threshold", metric="crashes",
            description="the service control plane crashed this window",
        ),
        AlertRule(
            name="domain-down", kind="threshold", metric="domain_losses",
            description="a fault domain (rack) was lost this window",
        ),
        AlertRule(
            name="provision-stall", kind="threshold",
            metric="provision_failures",
            description="the pool failed to provision capacity",
        ),
        AlertRule(
            name="provision-slow", kind="threshold",
            metric="provision_stall_s",
            description="pool provisioning stalled (slow capacity delivery)",
        ),
        AlertRule(
            name="dead-letters", kind="threshold", metric="dead_letters",
            severity="ticket",
            description="requests were dead-lettered this window",
        ),
    )


@dataclass(frozen=True)
class AlertEvent(records.Record):
    """One lifecycle transition of a rule: fired or resolved."""

    rule: str
    state: str  # "fired" | "resolved"
    t_s: float
    window_index: int
    value: float
    severity: str = "page"
    detail: str = ""

    record_nan_null = ("value",)


class _RuleState:
    __slots__ = ("streak", "firing")

    def __init__(self) -> None:
        self.streak = 0
        self.firing = False


class AlertEngine:
    """Evaluates a rulebook against the growing rollup series."""

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ReproError(f"duplicate rule names: {dupes}")
        self.rules = tuple(rules)
        self._state = {r.name: _RuleState() for r in self.rules}

    @property
    def firing(self) -> Tuple[str, ...]:
        """Names of currently-firing rules, rulebook order."""
        return tuple(
            r.name for r in self.rules if self._state[r.name].firing
        )

    def evaluate(self, rollups: Sequence[WindowRollup]) -> List[AlertEvent]:
        """Evaluate every rule against the newest rollup; returns the
        lifecycle transitions (empty when nothing changed state)."""
        if not rollups:
            return []
        cur = rollups[-1]
        events: List[AlertEvent] = []
        for rule in self.rules:
            verdict = self._check(rule, rollups)
            st = self._state[rule.name]
            if verdict is None:  # not evaluable this window: hold state
                continue
            breach, value, detail = verdict
            if breach:
                st.streak += 1
                if not st.firing and st.streak >= rule.for_windows:
                    st.firing = True
                    events.append(
                        AlertEvent(
                            rule=rule.name, state="fired", t_s=cur.t_end,
                            window_index=cur.index, value=value,
                            severity=rule.severity, detail=detail,
                        )
                    )
            else:
                st.streak = 0
                if st.firing:
                    st.firing = False
                    events.append(
                        AlertEvent(
                            rule=rule.name, state="resolved", t_s=cur.t_end,
                            window_index=cur.index, value=value,
                            severity=rule.severity, detail=detail,
                        )
                    )
        return events

    # ------------------------------------------------------------------
    def _check(
        self, rule: AlertRule, rollups: Sequence[WindowRollup]
    ) -> Optional[Tuple[bool, float, str]]:
        """``(breached, value, detail)`` or None when not evaluable."""
        if rule.kind == "threshold":
            value = rollups[-1].metrics.get(rule.metric, 0.0)
            if value != value:
                return None
            return (
                value > rule.threshold,
                value,
                f"{rule.metric}={value:g} vs threshold {rule.threshold:g}",
            )
        if rule.kind == "burn_rate":
            fast = _window_ratio(
                rollups[-rule.fast_windows:], rule.num, rule.den
            )
            slow = _window_ratio(
                rollups[-rule.slow_windows:], rule.num, rule.den
            )
            fast_x = fast / rule.budget
            slow_x = slow / rule.budget
            return (
                fast_x >= rule.fast_burn and slow_x >= rule.slow_burn,
                fast_x,
                (
                    f"{rule.num}/{rule.den} burn {fast_x:.1f}x fast / "
                    f"{slow_x:.1f}x slow of {rule.budget:g} budget"
                ),
            )
        # anomaly: robust deviation against the metric's own history
        evaluable = [
            r.metrics[rule.metric]
            for r in rollups
            if _anomaly_evaluable(rule, r)
        ]
        if not _anomaly_evaluable(rule, rollups[-1]):
            return None
        value = evaluable[-1]
        history = evaluable[:-1][-rule.history_windows:]
        if len(history) < rule.min_history:
            return False, value, "warming up"
        med, mad, cut_above = robust_cutoff(
            history, threshold=rule.mad_threshold, rel_floor=rule.rel_floor
        )
        if rule.direction == "above":
            cut = max(cut_above, rule.min_value)
            return (
                value > cut,
                value,
                f"{rule.metric}={value:g} vs median {med:g} cutoff {cut:g}",
            )
        cut = med - rule.mad_threshold * max(mad, rule.rel_floor * med)
        return (
            value < cut,
            value,
            f"{rule.metric}={value:g} vs median {med:g} floor {cut:g}",
        )


def _window_ratio(
    rollups: Sequence[WindowRollup], num: str, den: str
) -> float:
    """Count-weighted ratio over a window span (0 on an empty span)."""
    total_den = sum(r.metrics.get(den, 0.0) for r in rollups)
    if total_den <= 0:
        return 0.0
    return sum(r.metrics.get(num, 0.0) for r in rollups) / total_den


def _anomaly_evaluable(rule: AlertRule, rollup: WindowRollup) -> bool:
    value = rollup.metrics.get(rule.metric, float("nan"))
    if value != value:
        return False
    if rule.gate_metric:
        if rollup.metrics.get(rule.gate_metric, 0.0) <= rule.gate_min:
            return False
    return True


# ----------------------------------------------------------------------
# layer 3: incident diagnosis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IncidentReport(records.Record):
    """A fired alert attributed to a cause, with its evidence."""

    incident_id: str
    alert: str
    severity: str
    cause: str
    fired_at_s: float
    window_index: int
    value: float
    alert_detail: str
    cause_detail: str
    evidence: Dict[str, object] = field(default_factory=dict)

    record_derived = ("narrative",)
    record_nan_null = ("value",)

    @property
    def narrative(self) -> str:
        """One operator-readable line."""
        spans = self.evidence.get("spans", [])
        names = ", ".join(s["name"] for s in spans[:3])  # type: ignore[index]
        tail = f"; evidence spans: {names}" if names else ""
        return (
            f"{self.incident_id}: {self.alert} fired at "
            f"t={self.fired_at_s:.0f}s (window {self.window_index}, "
            f"{self.alert_detail}) -> {self.cause}: "
            f"{self.cause_detail}{tail}"
        )


def _cause_signals(
    look: Sequence[WindowRollup],
) -> List[Tuple[int, int, str, str]]:
    """Candidate causes present in the lookback rollups, each as
    ``(last_window_seen, -precedence, cause, detail)``."""

    def latest(key: str) -> Optional[WindowRollup]:
        hits = [r for r in look if r.metrics.get(key, 0.0) > 0.0]
        return hits[-1] if hits else None

    out: List[Tuple[int, int, str, str]] = []

    r = latest("crashes") or latest("downtime_shed")
    if r is not None:
        out.append(
            (
                r.index, -CAUSES.index("service_crash"), "service_crash",
                f"control plane crashed in window {r.index} "
                f"({int(r.metrics.get('downtime_shed', 0))} arrivals shed "
                f"while down, recovery {r.metrics.get('recovery_s', 0.0):g} s)",
            )
        )
    r = latest("domain_losses")
    if r is not None:
        out.append(
            (
                r.index, -CAUSES.index("domain_loss"), "domain_loss",
                f"fault domain lost in window {r.index} "
                f"({int(r.metrics.get('retries', 0))} retries queued)",
            )
        )
    r = latest("provision_failures") or latest("provision_stall_s")
    if r is not None:
        out.append(
            (
                r.index, -CAUSES.index("provision_stall"), "provision_stall",
                f"pool provisioning failed/stalled in window {r.index} "
                f"(stall {r.metrics.get('provision_stall_s', 0.0):g} s)",
            )
        )
    r = latest("straggler_incidents")
    if r is not None:
        out.append(
            (
                r.index, -CAUSES.index("node_slowdown"), "node_slowdown",
                f"straggler incidents on the health ledger in window "
                f"{r.index}",
            )
        )
    collapsed = [
        r
        for r in look
        if r.metrics.get("cache_lookups", 0.0) > 0.0
        and r.metrics.get("cache_hit_rate", 1.0) <= 0.25
    ]
    if collapsed:
        r = collapsed[-1]
        out.append(
            (
                r.index, -CAUSES.index("cache_hit_collapse"),
                "cache_hit_collapse",
                f"cmat cache hit rate fell to "
                f"{r.metrics.get('cache_hit_rate', 0.0):.2f} in window "
                f"{r.index}",
            )
        )
    shed = [
        r
        for r in look
        if r.metrics.get("shed", 0.0) > 0.0
        and r.metrics.get("downtime_shed", 0.0) <= 0.0
    ]
    if shed:
        r = shed[-1]
        out.append(
            (
                r.index, -CAUSES.index("admission_backpressure"),
                "admission_backpressure",
                f"admission bound shed {int(r.metrics.get('shed', 0))} "
                f"arrivals in window {r.index} "
                f"(queue depth {r.metrics.get('queue_depth', 0.0):g})",
            )
        )
    return out


# ----------------------------------------------------------------------
# the monitor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MonitorSummary(records.Record):
    """The byte-stable monitoring block of the service report."""

    window_s: float
    n_windows: int
    rules: Tuple[str, ...]
    firing_at_end: Tuple[str, ...]
    alerts: Tuple[AlertEvent, ...]
    incidents: Tuple[IncidentReport, ...]

    record_tag = MONITOR_FORMAT
    record_derived = ("n_fired", "n_resolved")

    @property
    def n_fired(self) -> int:
        """Alerts that fired over the run."""
        return sum(1 for a in self.alerts if a.state == "fired")

    @property
    def n_resolved(self) -> int:
        """Alerts that resolved over the run."""
        return sum(1 for a in self.alerts if a.state == "resolved")


class ServiceMonitor:
    """Passive observer the :class:`~repro.service.loop.OnlineService`
    drives between events.

    Parameters
    ----------
    window_s:
        Rollup window length in simulated seconds.
    rules:
        The rulebook (default :func:`default_rulebook`).
    """

    #: How many windows of history a diagnosis inspects.
    LOOKBACK_WINDOWS = 6
    #: Cap on evidence spans named per incident.
    MAX_EVIDENCE_SPANS = 5

    def __init__(
        self,
        *,
        window_s: float = 60.0,
        rules: Optional[Sequence[AlertRule]] = None,
    ) -> None:
        if not 0 < window_s < float("inf"):
            raise ReproError(f"window_s must be in (0, inf), got {window_s}")
        #: the service's telemetry bundle, bound by the service itself
        self.telemetry = None
        self.window_s = float(window_s)
        self.rules = (
            tuple(rules) if rules is not None else default_rulebook()
        )
        self.engine = AlertEngine(self.rules)
        self.rollups: List[WindowRollup] = []
        self.alerts: List[AlertEvent] = []
        self.incidents: List[IncidentReport] = []
        self._began = False
        self._t0 = 0.0
        self._index = 0
        #: :meth:`_totals` at the last window boundary
        self._mark: Dict[str, float] = {}
        self._ttr_mark: Optional[HistogramSnapshot] = None
        self._incident_seq = 0

    def bind(self, telemetry) -> None:
        """Attach the service's telemetry bundle (idempotent; called
        by the service loop before the first event)."""
        if self.telemetry is None:
            self.telemetry = telemetry
        elif self.telemetry is not telemetry:
            raise ReproError(
                "monitor is bound to a different telemetry bundle than "
                "the service's"
            )

    # ------------------------------------------------------------------
    # service-loop hooks (pure reads of service state)
    # ------------------------------------------------------------------
    def begin(self, service, t0: float) -> None:
        """Start (or restart, after recovery) the window clock at
        ``t0`` and capture baseline snapshots."""
        if self.telemetry is None:
            raise ReproError("ServiceMonitor.begin() before bind()")
        self._began = True
        self._t0 = float(t0)
        self._index = 0
        self._mark = self._totals(service)
        hist = self.telemetry.metrics.histogram_or_none("service_ttr_seconds")
        self._ttr_mark = hist.snapshot() if hist is not None else None

    def advance(self, service, t_now: float) -> None:
        """Close every window that ends at or before ``t_now``.

        The service calls this as each event is popped, *before*
        handling it — every metric still reflects events strictly
        earlier than ``t_now``, so a window ending at or before
        ``t_now`` closes on exactly the events inside it (an event at
        the boundary belongs to the next window).
        """
        if not self._began:
            return
        while self._next_end() <= t_now:
            end = self._next_end()
            self._close_window(service, end - self.window_s, end)
            self._index += 1

    def finish(self, service, t_end: float) -> Optional[MonitorSummary]:
        """Close trailing windows (including a final partial one) and
        return the summary for the service report (None before begin)."""
        if not self._began:
            return None
        self.advance(service, t_end)
        start = self._t0 + self._index * self.window_s
        if t_end > start:
            self._close_window(service, start, t_end)
            self._index += 1
        return self.summary()

    def _next_end(self) -> float:
        return self._t0 + (self._index + 1) * self.window_s

    # ------------------------------------------------------------------
    def _totals(self, service) -> Dict[str, float]:
        """Every cumulative input of a rollup, by rollup key, so a
        window is one delta of two of these: the service counters, the
        fold's resilience totals, the health incidents ever recorded,
        the cmat cache's hits and lookups, and each fault domain's
        imposed wait (``domain.`` keys)."""
        m = self.telemetry.metrics
        out = {key: m.counter_total(cname) for key, cname in COUNTER_METRICS}
        for key, rkey in RESIL_METRICS:
            out[key] = float(service.state.resil.get(rkey, 0.0))
        recorded = service.health.recorded
        out["health_incidents"] = float(sum(recorded.values()))
        out["straggler_incidents"] = float(recorded.get("straggler", 0))
        cache = service.runner.cache
        stats = cache.stats() if cache is not None else {}
        out["cache_hits"] = float(stats.get("hits", 0.0))
        out["cache_lookups"] = out["cache_hits"] + float(stats.get("misses", 0.0))
        for name, key, mtype, value in m:
            if name == DOMAIN_WAIT_COUNTER and mtype == "counter":
                out["domain." + dict(key).get("domain", "0")] = value
        return out

    def _close_window(self, service, t_start: float, t_end: float) -> None:
        m = self.telemetry.metrics
        now = self._totals(service)
        met = {k: v - self._mark.get(k, 0.0) for k, v in now.items()}
        self._mark = now
        domains = {
            k[len("domain."):]: met.pop(k)
            for k in sorted(now)
            if k.startswith("domain.")
        }
        hits = met.pop("cache_hits")
        met["shed_rate"] = (
            met["shed"] / met["arrivals"] if met["arrivals"] else 0.0
        )
        met["slo_miss_rate"] = (
            met["slo_misses"] / met["completions"]
            if met["completions"]
            else 0.0
        )
        # exact window quantiles: histogram delta, no re-bucketing
        hist = m.histogram_or_none("service_ttr_seconds")
        if hist is None:
            p50 = p99 = float("nan")
        else:
            window = (
                hist.delta(self._ttr_mark)
                if self._ttr_mark is not None
                else hist
            )
            p50, p99 = window.quantile(0.5), window.quantile(0.99)
            self._ttr_mark = hist.snapshot()
        met["ttr_p50_s"] = p50
        met["ttr_p99_s"] = p99
        # instantaneous state at the window boundary
        met["queue_depth"] = float(service.queue_depth)
        met["inflight_jobs"] = float(service.inflight_jobs)
        met["pool_provisioned"] = float(service.pool.provisioned)
        met["pool_busy"] = float(service.pool.busy)
        met["pool_utilisation"] = (
            met["pool_busy"] / met["pool_provisioned"]
            if met["pool_provisioned"]
            else 0.0
        )
        met["cache_hit_rate"] = (
            hits / met["cache_lookups"] if met["cache_lookups"] > 0 else float("nan")
        )
        met["domain_wait_max_s"] = max(domains.values(), default=0.0)
        rollup = WindowRollup(
            index=self._index,
            t_start=float(t_start),
            t_end=float(t_end),
            metrics=met,
            domains=domains,
        )
        self.rollups.append(rollup)
        for event in self.engine.evaluate(self.rollups):
            self.alerts.append(event)
            if event.state == "fired":
                self.incidents.append(self._diagnose(service, event))

    # ------------------------------------------------------------------
    def _diagnose(self, service, event: AlertEvent) -> IncidentReport:
        look = self.rollups[-self.LOOKBACK_WINDOWS:]
        t0 = look[0].t_start
        signals = _cause_signals(look)
        if signals:
            _, _, cause, cause_detail = max(signals)
        else:
            cause, cause_detail = (
                "unknown",
                "no fault signal in the lookback windows",
            )
        health = [
            i.to_dict()
            for i in service.health.incidents_between(t0, event.t_s)
        ]
        spans = self._evidence_spans(t0, event.t_s)
        self._incident_seq += 1
        return IncidentReport(
            incident_id=f"inc{self._incident_seq:03d}",
            alert=event.rule,
            severity=event.severity,
            cause=cause,
            fired_at_s=event.t_s,
            window_index=event.window_index,
            value=event.value,
            alert_detail=event.detail,
            cause_detail=cause_detail,
            evidence={
                "lookback": [t0, event.t_s],
                "health_incidents": health,
                "resilience": {
                    key: sum(r.metrics.get(key, 0.0) for r in look)
                    for key, _ in RESIL_METRICS
                },
                "spans": spans,
            },
        )

    def _evidence_spans(
        self, t0: float, t1: float
    ) -> List[Dict[str, object]]:
        """Completed + live spans overlapping the lookback, newest
        first, scheduler-level kinds only (jobs, markers, recoveries
        — not per-collective leaves)."""
        tracer = self.telemetry.tracer
        keep = ("job", "marker", "recovery", "migration", "checkpoint")
        hits = [
            s
            for s in tracer.spans
            if s.kind in keep and s.t_end >= t0 and s.t_start <= t1
        ]
        hits.extend(
            s for s in tracer.open_spans(t1) if s.kind in keep
        )
        hits.sort(key=lambda s: (-s.t_start, s.span_id))
        return [
            {
                "span_id": s.span_id,
                "name": s.name,
                "kind": s.kind,
                "t_start": s.t_start,
                "duration": s.duration,
            }
            for s in hits[: self.MAX_EVIDENCE_SPANS]
        ]

    # ------------------------------------------------------------------
    # summary / rendering
    # ------------------------------------------------------------------
    def summary(self) -> MonitorSummary:
        """The monitoring block of the service report, so far."""
        return MonitorSummary(
            window_s=self.window_s,
            n_windows=len(self.rollups),
            rules=tuple(r.name for r in self.rules),
            firing_at_end=self.engine.firing,
            alerts=tuple(self.alerts),
            incidents=tuple(self.incidents),
        )


def render_monitor_report(summary: Optional[MonitorSummary]) -> str:
    """Operator-readable alert timeline + incident narratives (None,
    an unmonitored report's, reads as off)."""
    if summary is None:
        return "monitoring: off\n"
    lines = [
        f"monitoring: {summary.n_windows} windows x {summary.window_s:g} s, "
        f"{len(summary.rules)} rules, "
        f"{summary.n_fired} fired / {summary.n_resolved} resolved"
    ]
    if summary.firing_at_end:
        lines.append("  still firing at end: " + ", ".join(summary.firing_at_end))
    if summary.alerts:
        lines.append("  alert timeline:")
        for a in summary.alerts:
            marker = "FIRED   " if a.state == "fired" else "resolved"
            lines.append(
                f"    [w{a.window_index:>3} t={a.t_s:>7.1f}s] "
                f"{marker} {a.rule}: {a.detail}"
            )
    if summary.incidents:
        lines.append("  incidents:")
        for inc in summary.incidents:
            lines.append(f"    {inc.narrative}")
    return "\n".join(lines) + "\n"
