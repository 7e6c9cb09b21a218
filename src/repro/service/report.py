"""Service-level outcome records and the aggregate report.

Where the batch :class:`~repro.campaign.report.CampaignReport` answers
"how fast did the machine drain a fixed queue", the
:class:`ServiceReport` answers the online questions the ROADMAP's
"millions of users" framing actually poses:

- **time-to-result** (arrival to finish) at p50/p99, computed with the
  same Prometheus-style bucket interpolation
  (:meth:`~repro.obs.metrics.Histogram.quantile`) a production
  dashboard would use;
- **SLO attainment** — the fraction of served requests that finished
  by their deadline;
- **goodput** — member-steps completed *within* SLO per simulated
  second (work that arrived too late to matter does not count);
- **shed rate** — arrivals turned away at the admission door;
- **pool economics** — provisioned node-seconds (what the elastic pool
  paid for), busy node-seconds (what it used), and the pool-size
  timeline against which offered load can be plotted.

All times are simulated-clock seconds; :meth:`ServiceReport.to_dict`
is JSON-safe and byte-stable under ``json.dumps(..., sort_keys=True)``
for same-seed reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaign.report import AbandonedRecord, JobRecord
from repro.obs.metrics import Histogram
from repro.records import Record, json_float
from repro.service.admission import RejectionRecord

#: Time-to-result histogram bounds (simulated seconds).  Wider than the
#: telemetry defaults: a service request's TTR includes window hold and
#: queueing, so the interesting mass sits in minutes, not microseconds.
SERVICE_TTR_BUCKETS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
    600.0, 1200.0, 1800.0, 3600.0, 7200.0,
)


@dataclass(frozen=True)
class ServedRecord(Record):
    """One request served to completion by the online service."""

    request_id: str
    tenant: str
    arrival_s: float
    start_s: float
    finish_s: float
    deadline_s: Optional[float]
    steps: int
    attempts: int
    job_id: str

    record_derived = ("ttr_s", "wait_s", "slo_met")

    @property
    def ttr_s(self) -> float:
        """Time-to-result: arrival to finish, across retries."""
        return self.finish_s - self.arrival_s

    @property
    def wait_s(self) -> float:
        """Arrival to first dispatch (window hold + queueing)."""
        return max(0.0, self.start_s - self.arrival_s)

    @property
    def slo_met(self) -> bool:
        """Finished by the deadline (vacuously true without one)."""
        return self.deadline_s is None or self.finish_s <= self.deadline_s


@dataclass
class ServiceReport:
    """Aggregate summary of one online-service run."""

    machine_name: str
    machine_n_nodes: int
    horizon_s: float  # arrival horizon the traffic was generated over
    duration_s: float  # service start to last completion/reclaim
    offered: int  # arrivals presented to admission
    served: List[ServedRecord] = field(default_factory=list)
    rejections: List[RejectionRecord] = field(default_factory=list)
    abandoned: List[AbandonedRecord] = field(default_factory=list)
    jobs: List[JobRecord] = field(default_factory=list)
    cache: Dict[str, float] = field(default_factory=dict)
    pool_node_seconds: float = 0.0
    pool_timeline: List[Dict[str, object]] = field(default_factory=list)
    tenant_node_seconds: Dict[str, float] = field(default_factory=dict)
    #: resilience counters the loop accumulates — retries, dead-letters
    #: broken down by cause, data-plane recoveries, control-plane
    #: crashes/recovery seconds, provisioning failures and stalls,
    #: domain losses (empty on a fault-free run)
    resilience: Dict[str, object] = field(default_factory=dict)
    #: live-monitoring summary (:meth:`ServiceMonitor.summary` — window
    #: rollout counts, alert timeline, incident reports; empty when the
    #: service ran without a monitor)
    monitoring: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_served(self) -> int:
        """Requests brought to completion."""
        return len(self.served)

    @property
    def n_shed(self) -> int:
        """Arrivals rejected at admission."""
        return len(self.rejections)

    @property
    def n_abandoned(self) -> int:
        """Admitted requests dead-lettered after repeated faults."""
        return len(self.abandoned)

    @property
    def shed_rate(self) -> float:
        """Shed over offered (0.0 with no arrivals)."""
        return self.n_shed / self.offered if self.offered else 0.0

    @property
    def slo_attainment(self) -> float:
        """Fraction of served requests that met their deadline."""
        if not self.served:
            return 0.0
        return sum(1 for r in self.served if r.slo_met) / len(self.served)

    @property
    def goodput_member_steps_per_s(self) -> float:
        """Member-steps completed *within SLO*, per simulated second."""
        if self.duration_s <= 0:
            return 0.0
        good = sum(r.steps for r in self.served if r.slo_met)
        return good / self.duration_s

    @property
    def throughput_member_steps_per_s(self) -> float:
        """All completed member-steps per simulated second."""
        if self.duration_s <= 0:
            return 0.0
        return sum(r.steps for r in self.served) / self.duration_s

    @property
    def busy_node_seconds(self) -> float:
        """Node-seconds actually spent running jobs."""
        return sum(j.n_nodes * j.elapsed_s for j in self.jobs)

    @property
    def pool_utilisation(self) -> float:
        """Busy node-seconds over provisioned node-seconds — the
        elastic pool's efficiency (a fixed pool pays for idle time)."""
        if self.pool_node_seconds <= 0:
            return 0.0
        return self.busy_node_seconds / self.pool_node_seconds

    @property
    def peak_pool_nodes(self) -> int:
        """Largest provisioned size the pool reached."""
        if not self.pool_timeline:
            return 0
        return max(int(s["provisioned"]) for s in self.pool_timeline)

    @property
    def mean_k(self) -> float:
        """Average ensemble size across dispatched jobs."""
        if not self.jobs:
            return 0.0
        return sum(j.k for j in self.jobs) / len(self.jobs)

    @property
    def cache_hit_rate(self) -> float:
        """Cmat-cache hit rate over the run (0.0 without a cache)."""
        return float(self.cache.get("hit_rate", 0.0))

    # ------------------------------------------------------------------
    def ttr_histogram(self) -> Histogram:
        """Time-to-result distribution over served requests."""
        hist = Histogram(SERVICE_TTR_BUCKETS)
        for r in self.served:
            hist.observe(r.ttr_s)
        return hist

    def ttr_quantile(self, q: float) -> float:
        """Interpolated TTR quantile (NaN before the first service)."""
        return self.ttr_histogram().quantile(q)

    @property
    def p50_ttr_s(self) -> float:
        """Median time-to-result."""
        return self.ttr_quantile(0.5)

    @property
    def p99_ttr_s(self) -> float:
        """Tail time-to-result."""
        return self.ttr_quantile(0.99)

    # ------------------------------------------------------------------
    def tenant_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant served counts, SLO attainment, and node-seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for r in self.served:
            row = out.setdefault(
                r.tenant, {"served": 0, "slo_met": 0, "node_seconds": 0.0}
            )
            row["served"] += 1
            row["slo_met"] += 1 if r.slo_met else 0
        for tenant, ns in self.tenant_node_seconds.items():
            out.setdefault(
                tenant, {"served": 0, "slo_met": 0, "node_seconds": 0.0}
            )["node_seconds"] = ns
        return dict(sorted(out.items()))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation of the whole report."""
        return {
            "machine_name": self.machine_name,
            "machine_n_nodes": self.machine_n_nodes,
            "horizon_s": self.horizon_s,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "n_served": self.n_served,
            "n_shed": self.n_shed,
            "n_abandoned": self.n_abandoned,
            "shed_rate": self.shed_rate,
            "slo_attainment": self.slo_attainment,
            "goodput_member_steps_per_s": self.goodput_member_steps_per_s,
            "throughput_member_steps_per_s": (
                self.throughput_member_steps_per_s
            ),
            "p50_ttr_s": json_float(self.p50_ttr_s),
            "p99_ttr_s": json_float(self.p99_ttr_s),
            "n_jobs": len(self.jobs),
            "mean_k": self.mean_k,
            "busy_node_seconds": self.busy_node_seconds,
            "pool_node_seconds": self.pool_node_seconds,
            "pool_utilisation": self.pool_utilisation,
            "peak_pool_nodes": self.peak_pool_nodes,
            "cache": dict(self.cache),
            "resilience": dict(self.resilience),
            "monitoring": dict(self.monitoring),
            "tenants": self.tenant_summary(),
            "rejections": [r.to_dict() for r in self.rejections],
            "abandoned": [a.to_dict() for a in self.abandoned],
            "pool_timeline": [dict(s) for s in self.pool_timeline],
            "jobs": [j.to_dict() for j in self.jobs],
            "served": [r.to_dict() for r in self.served],
        }


def _fmt_seconds(x: float) -> str:
    """Render a quantile: ``n/a`` for NaN (the text twin of the JSON
    ``null`` of :func:`repro.records.json_float`), else one-decimal
    seconds."""
    return "n/a" if x != x else f"{x:.1f} s"


# ----------------------------------------------------------------------
def render_service_report(report: ServiceReport) -> str:
    """Human-readable service summary (the ``repro serve`` output)."""
    lines = [
        f"online service on {report.machine_name} "
        f"({report.machine_n_nodes} nodes)",
        f"  horizon          : {report.horizon_s:.0f} s "
        f"(ran {report.duration_s:.1f} s)",
        f"  offered          : {report.offered}",
        f"  served           : {report.n_served}"
        + (f"  (+{report.n_abandoned} abandoned)" if report.abandoned else ""),
        f"  shed             : {report.n_shed} "
        f"({100.0 * report.shed_rate:.1f}%)",
        f"  SLO attainment   : {100.0 * report.slo_attainment:.1f}%",
        f"  TTR p50 / p99    : {_fmt_seconds(report.p50_ttr_s)} / "
        f"{_fmt_seconds(report.p99_ttr_s)}",
        f"  goodput          : {report.goodput_member_steps_per_s:.1f} "
        "member-steps/s",
        f"  jobs (mean k)    : {len(report.jobs)} ({report.mean_k:.2f})",
        f"  cache hit rate   : {100.0 * report.cache_hit_rate:.1f}%",
        f"  pool             : peak {report.peak_pool_nodes} nodes, "
        f"{report.pool_node_seconds:.0f} node-s provisioned, "
        f"{100.0 * report.pool_utilisation:.1f}% busy",
    ]
    res = report.resilience
    if res:
        causes = res.get("dead_letters_by_cause") or {}
        cause_txt = (
            " (" + ", ".join(f"{k} {v}" for k, v in sorted(causes.items())) + ")"
            if causes
            else ""
        )
        lines.append(
            f"  resilience       : {res.get('retries', 0)} retries, "
            f"{res.get('dead_letters', 0)} dead-letters{cause_txt}, "
            f"{res.get('recovery_seconds', 0.0):.1f} s recovering"
        )
        control = []
        if res.get("crashes"):
            control.append(f"{res['crashes']} service crash(es)")
        if res.get("provision_failures"):
            control.append(
                f"{res['provision_failures']} provision failure(s)"
            )
        if res.get("provision_stall_seconds"):
            control.append(
                f"{res['provision_stall_seconds']:.0f} s provisioning stall"
            )
        if res.get("domain_losses"):
            control.append(f"{res['domain_losses']} domain loss(es)")
        if control:
            lines.append("  control faults   : " + ", ".join(control))
    mon = report.monitoring
    if mon:
        lines.append(
            f"  monitoring       : {mon.get('n_windows', 0)} windows x "
            f"{float(mon.get('window_s', 0.0)):g} s, "
            f"{mon.get('n_fired', 0)} alert(s) fired / "
            f"{mon.get('n_resolved', 0)} resolved"
        )
        for inc in mon.get("incidents", []):  # type: ignore[union-attr]
            lines.append(f"    {inc['narrative']}")
    tenants = report.tenant_summary()
    if len(tenants) > 1:
        lines.append("  tenants:")
        for name, row in tenants.items():
            served = int(row["served"])
            met = int(row["slo_met"])
            pct = 100.0 * met / served if served else 0.0
            lines.append(
                f"    {name:<12} served {served:>4}  "
                f"SLO {pct:5.1f}%  {row['node_seconds']:.0f} node-s"
            )
    return "\n".join(lines)
