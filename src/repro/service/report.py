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
for same-seed reruns, and :meth:`ServiceReport.from_dict` loads it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.report import AbandonedRecord, JobBooks, JobRecord
from repro.errors import ServiceError
from repro.obs.metrics import Histogram
from repro.obs.monitor import MonitorSummary
from repro.records import Record
from repro.service.admission import RejectionRecord
from repro.service.pool import PoolSample

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
class ServiceReport(JobBooks, Record):
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
    cache: Dict[str, object] = field(default_factory=dict)
    pool_node_seconds: float = 0.0
    pool_timeline: List[PoolSample] = field(default_factory=list)
    #: per-tenant served count, SLO hits and node-seconds
    #: (:func:`tenant_summary`)
    tenants: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: the WAL fold's resilience totals (``ReplayState.resil``) —
    #: retries, dead-letters broken down by cause, control-plane
    #: crashes/recovery seconds, provisioning failures and stalls,
    #: domain losses, lost work seconds — plus the data-plane
    #: recoveries of its job records (empty on a fault-free run)
    resilience: Dict[str, object] = field(default_factory=dict)
    #: the summary of a monitored run (``{}`` in the file when unmonitored)
    monitoring: Optional[MonitorSummary] = None

    record_error = ServiceError
    record_empty_none = ("monitoring",)
    record_derived = (
        "n_served", "n_shed", "n_abandoned", "shed_rate", "slo_attainment",
        "goodput_member_steps_per_s", "throughput_member_steps_per_s",
        "p50_ttr_s", "p99_ttr_s", "n_jobs", "mean_k", "busy_node_seconds",
        "pool_utilisation", "peak_pool_nodes",
    )
    record_nan_null = ("p50_ttr_s", "p99_ttr_s")

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
        return max(s.provisioned for s in self.pool_timeline)

    @property
    def cache_hit_rate(self) -> float:
        """Cmat-cache hit rate over the run (0.0 without a cache)."""
        return float(self.cache.get("hit_rate", 0.0))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def ttr_quantile(self, q: float) -> float:
        """Interpolated quantile of the served requests' time-to-result
        (NaN before the first service)."""
        hist = Histogram(SERVICE_TTR_BUCKETS)
        for r in self.served:
            hist.observe(r.ttr_s)
        return hist.quantile(q)

    @property
    def p50_ttr_s(self) -> float:
        """Median time-to-result."""
        return self.ttr_quantile(0.5)

    @property
    def p99_ttr_s(self) -> float:
        """Tail time-to-result."""
        return self.ttr_quantile(0.99)


def tenant_summary(
    served: List[ServedRecord], node_seconds: Dict[str, float]
) -> Dict[str, Dict[str, object]]:
    """Per-tenant served counts, SLO hits and node-seconds, by tenant."""
    out: Dict[str, Dict[str, object]] = {}
    for tenant in sorted({r.tenant for r in served} | set(node_seconds)):
        mine = [r for r in served if r.tenant == tenant]
        out[tenant] = {
            "served": len(mine),
            "slo_met": sum(1 for r in mine if r.slo_met),
            "node_seconds": node_seconds.get(tenant, 0.0),
        }
    return out


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
        f"  jobs (mean k)    : {report.n_jobs} ({report.mean_k:.2f})",
        f"  cache hit rate   : {100.0 * report.cache_hit_rate:.1f}%",
        f"  pool             : peak {report.peak_pool_nodes} nodes, "
        f"{report.pool_node_seconds:.0f} node-s provisioned, "
        f"{100.0 * report.pool_utilisation:.1f}% busy",
    ]
    if len(report.tenants) > 1:
        lines.append("  tenants:")
        for name, row in report.tenants.items():
            served, met = int(row["served"]), int(row["slo_met"])
            pct = 100.0 * met / served if served else 0.0
            lines.append(
                f"    {name:<12} served {served:>4}  "
                f"SLO {pct:5.1f}%  {row['node_seconds']:.0f} node-s"
            )
    return "\n".join(lines)
