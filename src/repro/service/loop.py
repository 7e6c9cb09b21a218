"""The online service loop: arrive, admit, hold, batch, place, serve.

:class:`OnlineService` is the long-running counterpart of the batch
:class:`~repro.campaign.runner.CampaignRunner`.  Where the campaign
drains a queue that was full at t=0, the service runs a discrete-event
simulation on one deterministic clock:

- **arrivals** come from a :class:`~repro.service.traffic.TrafficModel`
  and pass :class:`~repro.service.admission.AdmissionController` —
  beyond ``max_pending`` in-system requests, new arrivals are shed
  with explicit rejection records (backpressure, not unbounded queues);
- admitted requests sit in a :class:`~repro.service.window.MovingWindow`
  until their signature group reaches ``min_batch`` or the oldest
  member has waited ``max_hold_s``;
- flushed batches are ordered by
  :meth:`~repro.service.admission.FairSharePolicy.batch_key` (weighted
  fair share across tenants, EDF within) and placed greedily onto the
  free nodes of an :class:`~repro.service.pool.ElasticNodePool`; a
  blocked batch triggers a grow request, and idle nodes drain back
  after ``idle_reclaim_s``;
- each placement is executed through
  :meth:`CampaignRunner.dispatch() <repro.campaign.runner.CampaignRunner.dispatch>`
  — same cmat cache, same health/quarantine charging, same telemetry
  span tree, same fault semantics as the batch path — and its
  completion is a future event at ``now + elapsed``;
- members lost to faults re-enter the window after the
  :class:`~repro.resilience.health.RetryPolicy` backoff, or land on
  the dead-letter list once the attempt cap is spent.

The control plane itself is now a fault domain (this is the durable
half of the robustness PR):

- with a :class:`~repro.service.journal.ServiceJournal` installed,
  every state transition is written to the WAL *as it happens* — a
  crash at any point leaves a journal whose replay
  (:func:`~repro.service.journal.recover_service` →
  :meth:`restore` → :meth:`resume`) resumes the simulated clock
  mid-horizon with exactly-once semantics: served results stay
  served, in-flight waves are requeued without charging their retry
  budget, and regenerated traffic minus the already-seen arrival ids
  fills in the rest of the horizon;
- a ``chaos`` :class:`~repro.resilience.faults.FaultPlan` arms
  control-plane faults on the sim clock: ``service_crash`` (downtime
  + in-flight loss, handled per the ``recovery`` mode),
  ``provision_fail`` (a grow request fails outright or stalls), and
  ``domain_loss`` (a whole fault domain of nodes rips out, taking the
  member shards placed on it; survivors shrink-and-recover because
  domain-aware placement spread them across racks).

Every quantity of interest lands in a :class:`ServiceReport`
(including the ``resilience`` counter block); every decision emits
counters/histograms through the shared
:class:`~repro.obs.Telemetry` bundle when one is installed.

The event heap orders ``(time, kind-rank, sequence)`` so same-instant
events resolve deterministically: capacity comes up and completions
release nodes before chaos strikes, chaos strikes before new arrivals
are admitted, and window flush timers run last.  Same seed, same
knobs — byte-identical report.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import ServiceError
from repro.campaign.cache import CmatCache
from repro.campaign.packer import CampaignPacker, PackedJob
from repro.campaign.report import (
    AbandonedRecord,
    JobRecord,
    retry_or_abandon,
)
from repro.campaign.request import SimRequest
from repro.campaign.runner import CampaignRunner
from repro.resilience.faults import CONTROL_KINDS, FaultPlan, FaultSpec
from repro.resilience.health import NodeHealthTracker, RetryPolicy
from repro.resilience.ledger import RecoveryEvent, RecoveryLedger
from repro.service.admission import (
    UNATTRIBUTED,
    AdmissionController,
    FairSharePolicy,
    RejectionRecord,
)
from repro.service.pool import BUSY, OFFLINE, ElasticNodePool
from repro.service.report import (
    SERVICE_TTR_BUCKETS,
    ServedRecord,
    ServiceReport,
)
from repro.service.traffic import TrafficModel
from repro.service.window import MovingWindow, WindowPolicy

#: Same-instant event precedence: capacity first, then completions
#: (free nodes), then control-plane faults (chaos sees the post-
#: completion state), then new work, then retries, then timers.
_EVENT_RANK = {
    "ready": 0,
    "complete": 1,
    "chaos": 2,
    "arrival": 3,
    "release": 4,
    "flush": 5,
    "reclaim": 6,
}

#: Recovery modes for a control-plane crash (in-run ``service_crash``
#: chaos and :meth:`OnlineService.restore` alike): ``resume`` keeps
#: durable state and requeues in-flight work; ``cold`` is the naive
#: restart-from-empty baseline — everything in the system is
#: dead-lettered and the pool reboots at its floor.
RECOVERY_MODES = ("resume", "cold")

#: Hard cap on total dispatches of one run, a backstop against a retry
#: configuration that never converges.
MAX_DISPATCHES = 100_000


@dataclass
class _ReadyBatch:
    """A flushed signature group waiting for nodes."""

    seq: int
    flushed_at: float
    signature_key: str
    requests: List[SimRequest] = field(default_factory=list)


class OnlineService:
    """Serve arriving requests on an elastic pool under one sim clock.

    Parameters
    ----------
    machine:
        The machine whose nodes the pool manages.
    traffic:
        Arrival stream generator (seeded — reruns are byte-identical,
        and a recovered run regenerates the stream to re-derive the
        arrivals the crash never saw).
    window:
        Moving-window flush policy (default: ``WindowPolicy()``).
    max_pending:
        Admission bound on in-system (held + flushed-unplaced)
        requests; ``None`` never sheds.
    weights:
        Tenant fair-share weights (unlisted tenants weigh 1.0).
    default_slo_s:
        Deadline stamped on admitted requests that arrive without one
        (``None`` leaves them deadline-free).
    steps:
        Per-job step override; default is each job's
        ``steps_per_report`` cadence.
    min_nodes / max_nodes / provision_delay_s / idle_reclaim_s:
        Knobs of the :class:`ElasticNodePool` the service builds.
    prefer_larger_k:
        Packer sharing mode; ``False`` is the k=1 FIFO baseline.
    spread_domains:
        Interleave grow picks and placements across the machine's
        fault domains (no-op without declared domains); ``False`` is
        the naive pack-a-rack baseline.
    journal:
        Optional :class:`~repro.service.journal.ServiceJournal`; when
        installed every transition is WAL-logged (and a crash injected
        by the journal propagates as
        :class:`~repro.errors.JournalCrash`).
    chaos:
        Optional :class:`~repro.resilience.faults.FaultPlan` whose
        *control-plane* specs fire on the sim clock (data-plane specs
        in the plan are ignored here — route those through
        ``node_faults``).
    recovery:
        How an in-run ``service_crash`` is handled: ``"resume"``
        (durable control plane) or ``"cold"`` (restart-from-empty
        baseline).
    checker_factory:
        Zero-arg callable building a fresh protocol checker per
        dispatch, forwarded to the :class:`CampaignRunner` (chaos
        scenarios run every wave checker-verified).
    cache / use_cache / retry / health / node_faults /
    checkpoint_interval / policy / telemetry:
        Forwarded to the underlying :class:`CampaignRunner` — dispatch
        semantics are identical to the batch path.
    monitor:
        Optional :class:`~repro.obs.monitor.ServiceMonitor` — the live
        monitoring plane (windowed rollups, alert rules, incident
        diagnosis).  Requires ``telemetry``; purely observational, so
        dispositions and clocks are bit-identical with or without it.
    """

    def __init__(
        self,
        machine,
        traffic: TrafficModel,
        *,
        window: Optional[WindowPolicy] = None,
        max_pending: Optional[int] = None,
        weights: Optional[Mapping[str, float]] = None,
        default_slo_s: Optional[float] = None,
        steps: Optional[int] = None,
        min_nodes: int = 1,
        max_nodes: Optional[int] = None,
        provision_delay_s: float = 0.0,
        idle_reclaim_s: float = float("inf"),
        prefer_larger_k: bool = True,
        spread_domains: bool = True,
        journal=None,
        chaos: Optional[FaultPlan] = None,
        recovery: str = "resume",
        checker_factory=None,
        cache: Optional[CmatCache] = None,
        use_cache: bool = True,
        retry: Optional[RetryPolicy] = RetryPolicy(),
        health: Optional[NodeHealthTracker] = None,
        node_faults=None,
        checkpoint_interval: int = 1,
        policy=None,
        telemetry=None,
        monitor=None,
    ) -> None:
        self.machine = machine
        self.traffic = traffic
        self._window_policy = window
        self.window = MovingWindow(window)
        self.admission = AdmissionController(max_pending)
        self.fairness = FairSharePolicy(weights)
        self.default_slo_s = default_slo_s
        self.steps = steps
        self.telemetry = telemetry
        self.monitor = monitor
        if monitor is not None:
            if telemetry is None:
                raise ServiceError(
                    "monitor= requires telemetry= (rollups are windowed "
                    "deltas over its metrics registry)"
                )
            monitor.bind(telemetry)
        self.journal = journal
        self.chaos = chaos
        if recovery not in RECOVERY_MODES:
            raise ServiceError(
                f"recovery must be one of {RECOVERY_MODES}, got {recovery!r}"
            )
        self.recovery = recovery
        self.health = health if health is not None else NodeHealthTracker()
        self.pool = ElasticNodePool(
            machine,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            provision_delay_s=provision_delay_s,
            idle_reclaim_s=idle_reclaim_s,
            health=self.health,
            spread_domains=spread_domains,
        )
        self.packer = CampaignPacker(
            machine,
            prefer_larger_k=prefer_larger_k,
            health=self.health,
            spread_domains=spread_domains,
        )
        self.runner = CampaignRunner(
            machine,
            packer=self.packer,
            cache=cache,
            use_cache=use_cache,
            retry=retry,
            health=self.health,
            node_faults=node_faults,
            checkpoint_interval=checkpoint_interval,
            policy=policy,
            telemetry=telemetry,
            checker_factory=checker_factory,
        )
        self.ledger = RecoveryLedger()
        # mutable run state (reset by run())
        self._heap: List[Tuple[float, int, int, str, object]] = []
        self._seq = 0
        self._now = 0.0
        self._ready: List[_ReadyBatch] = []
        self._job_seq = 0
        self._batch_seq = 0
        self._by_id: Dict[str, SimRequest] = {}
        self._served: List[ServedRecord] = []
        self._abandoned: List[AbandonedRecord] = []
        self._jobs: List[JobRecord] = []
        self._flush_timers: set = set()
        self._reclaim_timers: set = set()
        # in-flight wave manifests by job id; the heap's "complete"
        # payload is the job id, so chaos can reconcile a wave (drop
        # it, kill members) before its completion fires.  Every
        # manifest carries what crash reconciliation reads (requests,
        # nodes, dead_nodes, start_s); a dispatched one adds the job
        # and its outcome (job, record, completed, lost)
        self._inflight: Dict[str, Dict[str, object]] = {}
        # retry backoffs awaiting release: request_id -> (request, t)
        self._pending_release: Dict[str, Tuple[SimRequest, float]] = {}
        self._down_until = 0.0
        self._resil: Dict[str, float] = {}
        self._dead_by_cause: Dict[str, int] = {}
        # what the open transition added to the two totals above — the
        # ``resil`` block of the WAL event that will describe it
        self._tally: Dict[str, object] = {}
        self._consumed_chaos: Set[int] = set()
        self._provision_faults: List[Tuple[int, FaultSpec]] = []
        self._pending_restores: List[Tuple[float, Tuple[int, ...]]] = []
        self._health_mark = 0
        # set by restore(): (recovery time, arrival ids the WAL saw)
        self._recovered: Optional[Tuple[float, Set[str]]] = None

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _push(self, t: float, kind: str, payload: object = None) -> None:
        self._seq += 1
        heapq.heappush(
            self._heap, (float(t), _EVENT_RANK[kind], self._seq, kind, payload)
        )

    def _in_system(self) -> int:
        """Requests admitted but not yet dispatched (the admission
        bound's denominator): window holds plus flushed-unplaced."""
        return len(self.window) + sum(len(b.requests) for b in self._ready)

    # ------------------------------------------------------------------
    # read-only state for the monitoring plane (pure observations; the
    # monitor must never mutate service state)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched, right now."""
        return self._in_system()

    @property
    def inflight_jobs(self) -> int:
        """Waves dispatched but not yet completed (or canceled)."""
        return len(self._inflight)

    def resilience_counters(self) -> Dict[str, float]:
        """A copy of the raw resilience tallies (monitor rollups read
        deltas of these; keys as in the report's resilience block)."""
        return {k: float(v) for k, v in self._resil.items()}

    def _log(self, kind: str, payload: Dict[str, object]) -> None:
        """WAL-append one event stamped at the current sim clock (a
        no-op without a journal; an injected crash propagates).  The
        event that describes a transition carries its tally
        (:meth:`_take_tally`); one still open here was bumped by a
        handler that never journaled it."""
        if self._tally:
            raise ServiceError(
                f"resilience tally {self._tally} was not journaled "
                f"before the {kind} event"
            )
        if self.journal is not None:
            self.journal.append(kind, {"t": self._now, **payload})

    def _health_delta(self) -> List[Dict[str, object]]:
        """Incidents recorded since the last delta, as dicts."""
        incidents = self.health.incidents()
        fresh = incidents[self._health_mark:]
        self._health_mark = len(incidents)
        return [i.to_dict() for i in fresh]

    def _bump(self, key: str, amount: float = 1) -> None:
        """Add to a resilience total and to the open event's tally."""
        self._resil[key] = self._resil.get(key, 0) + amount
        self._tally[key] = self._tally.get(key, 0) + amount  # type: ignore[operator]

    def _take_tally(self) -> Dict[str, object]:
        """Close the open tally: the ``resil`` block of the event
        being journaled, exactly what its handler bumped."""
        tally, self._tally = self._tally, {}
        return tally

    def _dead_letter(
        self, record: AbandonedRecord, cause: str
    ) -> Dict[str, object]:
        """Put ``record`` on the dead-letter list under ``cause``, in
        the totals and the open tally alike; returns its journal entry."""
        self._by_id.pop(record.request_id, None)
        self._abandoned.append(record)
        self._bump("dead_letters")
        self._dead_by_cause[cause] = self._dead_by_cause.get(cause, 0) + 1
        by_cause = self._tally.setdefault("by_cause", {})
        by_cause[cause] = by_cause.get(cause, 0) + 1  # type: ignore[union-attr]
        return {"record": record.to_dict(), "cause": cause}

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, horizon_s: float) -> ServiceReport:
        """Generate ``horizon_s`` of traffic, serve it to empty, and
        return the service report."""
        self._open(horizon_s, 0.0, frozenset())
        self._log(
            "begin",
            {
                "horizon_s": float(horizon_s),
                "pool": self.pool.to_dict(),
                "health": self.health.to_dict(),
            },
        )
        self._arm_chaos(0.0)
        self._loop()
        return self._finish(horizon_s)

    def _open(self, horizon_s: float, t0: float, seen) -> None:
        """Open the telemetry root span and the monitor at ``t0`` and
        schedule every arrival of the horizon whose id is not in
        ``seen`` (a recovered run's WAL already saw those), none
        before ``t0``."""
        tele = self.telemetry
        if tele is not None:
            tele.tracer.time_offset = 0.0
            tele.tracer.begin("service", "service", t0)
        if self.monitor is not None:
            self.monitor.begin(self, t0)
        for req in self.traffic.generate(horizon_s):
            if req.request_id not in seen:
                self._push(max(req.arrival_s, t0), "arrival", req)

    def _arm_chaos(self, t_floor: float) -> None:
        """Schedule the plan's control-plane specs (skipping consumed
        ones — recovery re-arms only what has not fired)."""
        if self.chaos is None:
            return
        self._provision_faults = []
        for i, spec in enumerate(self.chaos.specs):
            if spec.kind not in CONTROL_KINDS or i in self._consumed_chaos:
                continue
            if spec.kind == "provision_fail":
                self._provision_faults.append((i, spec))
            else:
                self._push(
                    max(spec.at_s, t_floor), "chaos", {"spec_index": i}
                )
        self._provision_faults.sort(key=lambda e: (e[1].at_s, e[0]))

    def _loop(self) -> None:
        while self._heap or self.window or self._ready:
            if not self._heap:
                # nothing scheduled but requests still held: only
                # possible with an infinite hold bound and a group
                # below min_batch — drain it at the current clock
                if self.window:
                    self._force_drain()
                    continue
                raise ServiceError(
                    "service stalled: batches are blocked and no event "
                    "is pending"
                )  # pragma: no cover - _maybe_grow raises first
            t, _, _, kind, payload = heapq.heappop(self._heap)
            self._now = max(self._now, t)
            if self.monitor is not None:
                # before handling: every metric still reflects events
                # strictly earlier than t, so windows ending <= t close
                # on exactly their own events
                self.monitor.advance(self, self._now)
            came_up = self.pool.on_ready(self._now)
            if came_up:
                self._log("pool", {"op": "ready", "nodes": came_up})
                if self.telemetry is not None:
                    self.telemetry.tracer.record(
                        "pool.ready", "marker", self._now, 0.0,
                        nodes=sorted(came_up),
                    )
            if kind == "arrival":
                self._on_arrival(payload)
            elif kind == "complete":
                self._on_complete(payload)
            elif kind == "release":
                self._on_release(payload)
            elif kind == "chaos":
                self._on_chaos(payload)
            elif kind == "flush":
                self._flush_timers.discard(t)
            elif kind == "reclaim":
                self._reclaim_timers.discard(t)
            # "ready" has no payload: on_ready above did the work
            if self._now < self._down_until:
                continue  # control plane is down: no scheduling
            self._schedule()

    def _finish(self, horizon_s: float) -> ServiceReport:
        # close the WAL at the final clock so a replay's pool integral
        # covers the idle tail after the last state transition
        self._log("end", {})
        self.pool.finish(self._now)
        monitoring = (
            self.monitor.finish(self, self._now)
            if self.monitor is not None
            else {}
        )
        cache = (
            self.runner.cache.stats() if self.runner.cache is not None else {}
        )
        tele = self.telemetry
        if tele is not None:
            tele.tracer.time_offset = 0.0
            tele.tracer.end(self._now)
            tele.metrics.gauge("service_pool_peak_nodes").max(
                max((s.provisioned for s in self.pool.timeline), default=0)
            )
            for key, val in cache.items():
                tele.metrics.gauge(f"service_cache_{key}").set(val)
        return ServiceReport(
            machine_name=self.machine.name,
            machine_n_nodes=self.machine.n_nodes,
            horizon_s=float(horizon_s),
            duration_s=self._now,
            offered=self.admission.offered,
            served=self._served,
            rejections=list(self.admission.rejections),
            abandoned=self._abandoned,
            jobs=self._jobs,
            cache=cache,
            pool_node_seconds=self.pool.node_seconds,
            pool_timeline=self.pool.timeline_dicts(),
            tenant_node_seconds=self.fairness.served(),
            resilience=self._resilience_summary(),
            monitoring=monitoring,
        )

    def _resilience_summary(self) -> Dict[str, object]:
        """The report's resilience block (empty on a fault-free run)."""
        if not (self._resil or self._dead_by_cause or self.ledger.events):
            return {}
        return {
            "retries": int(self._resil.get("retries", 0)),
            "dead_letters": int(self._resil.get("dead_letters", 0)),
            "dead_letters_by_cause": {
                k: int(v) for k, v in sorted(self._dead_by_cause.items())
            },
            "recovery_seconds": float(
                self._resil.get("recovery_seconds", 0.0)
            ),
            "crashes": int(self._resil.get("crashes", 0)),
            "provision_failures": int(
                self._resil.get("provision_failures", 0)
            ),
            "provision_stall_seconds": float(
                self._resil.get("provision_stall_seconds", 0.0)
            ),
            "domain_losses": int(self._resil.get("domain_losses", 0)),
            "downtime_shed": int(self._resil.get("downtime_shed", 0)),
            "wal_recoveries": int(self._resil.get("wal_recoveries", 0)),
            "data_plane_recoveries": int(
                sum(j.n_recoveries for j in self._jobs)
            ),
            "control_ledger": dict(self.ledger.totals()),
        }

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, req: SimRequest) -> None:
        tenant = req.tenant or UNATTRIBUTED
        tele = self.telemetry
        if tele is not None:
            tele.metrics.counter(
                "service_arrivals_total", tenant=tenant
            ).inc()
        if self._now < self._down_until:
            # the control plane is down: the front door is closed and
            # the arrival is shed by the (conceptual) load balancer —
            # recorded explicitly so request conservation still holds
            self.admission.offered += 1
            rejection = RejectionRecord(
                request_id=req.request_id,
                tenant=tenant,
                arrival_s=req.arrival_s,
                pending=self._in_system(),
                reason=(
                    f"service down until t={self._down_until:.3f} "
                    "(control-plane crash)"
                ),
            )
            self.admission.rejections.append(rejection)
            self._bump("downtime_shed")
        else:
            rejection = self.admission.try_admit(req, self._in_system())
        if rejection is not None:
            if tele is not None:
                tele.metrics.counter(
                    "service_shed_total", tenant=tenant
                ).inc()
            entry = {
                "request": req.to_dict(),
                "outcome": "shed",
                "rejection": rejection.to_dict(),
            }
            if self._tally:  # only a downtime shed counts as a fault
                entry["resil"] = self._take_tally()
            self._log("arrival", entry)
            return
        if req.deadline_s is None and self.default_slo_s is not None:
            req = dataclasses.replace(
                req, deadline_s=req.arrival_s + self.default_slo_s
            )
        self._by_id[req.request_id] = req
        self.window.add(req, self._now)
        self._log(
            "arrival", {"request": req.to_dict(), "outcome": "admit"}
        )

    def _on_release(self, req: SimRequest) -> None:
        """A retry's backoff elapsed: back into the window (admission
        was already paid on first arrival)."""
        if self._pending_release.pop(req.request_id, None) is None:
            # the request was dead-lettered by a cold crash while its
            # backoff was pending — the timer fires into the void
            return
        self._by_id[req.request_id] = req
        self.window.add(req, self._now)
        self._log("release", {"request": req.to_dict()})

    def _requeue(
        self, req: SimRequest, release_t: float
    ) -> Dict[str, object]:
        """Schedule ``req`` to re-enter the window at ``release_t`` and
        return the journal entry describing it."""
        self._pending_release[req.request_id] = (req, release_t)
        self._push(release_t, "release", req)
        return {"request": req.to_dict(), "release_t": release_t}

    def _settle_lost(
        self, job_id: str, lost
    ) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
        """Retry-or-dead-letter each fault-lost ``(member, cause)`` of
        wave ``job_id``; returns the journal entries of the outcomes,
        ``(requeued, dead)``."""
        tele = self.telemetry
        requeued: List[Dict[str, object]] = []
        dead: List[Dict[str, object]] = []
        for req, cause in lost:
            outcome = retry_or_abandon(self.runner.retry, req, job_id)
            if isinstance(outcome, AbandonedRecord):
                if tele is not None:
                    tele.metrics.counter("service_dead_letters_total").inc()
                dead.append(self._dead_letter(outcome, cause))
                continue
            if tele is not None:
                tele.metrics.counter("service_retries_total").inc()
            self._bump("retries")
            requeued.append(
                self._requeue(req.requeued(), self._now + outcome)
            )
        return requeued, dead

    def _release_wave(self, man: Dict[str, object]) -> List[int]:
        """Hand a finished or canceled wave's surviving nodes back to
        the pool at the current clock; returns the released node ids."""
        live = [n for n in man["nodes"] if n not in man["dead_nodes"]]  # type: ignore[union-attr,operator]
        self.pool.release(live, self._now)
        return live

    def _on_complete(self, job_id: str) -> None:
        man = self._inflight.pop(job_id, None)
        if man is None:
            return  # the wave was reconciled away by a crash
        live = self._release_wave(man)
        tele = self.telemetry
        served_entries: List[Dict[str, object]] = []
        for rec in man["completed"]:  # type: ignore[union-attr]
            req = self._by_id.pop(rec.request_id)
            served = ServedRecord(
                request_id=rec.request_id,
                tenant=req.tenant or UNATTRIBUTED,
                arrival_s=req.arrival_s,
                start_s=rec.start_s,
                finish_s=rec.finish_s,
                deadline_s=req.deadline_s,
                steps=rec.steps,
                attempts=rec.attempts,
                job_id=rec.job_id,
            )
            self._served.append(served)
            served_entries.append(served.to_dict())
            if tele is not None:
                tele.metrics.counter(
                    "service_completions_total", tenant=served.tenant
                ).inc()
                tele.metrics.histogram(
                    "service_ttr_seconds", buckets=SERVICE_TTR_BUCKETS
                ).observe(served.ttr_s)
                tele.metrics.histogram("service_wait_seconds").observe(
                    served.wait_s
                )
                if not served.slo_met:
                    tele.metrics.counter(
                        "service_slo_miss_total", tenant=served.tenant
                    ).inc()
        requeued, dead = self._settle_lost(job_id, man["lost"])
        self._log(
            "complete",
            {
                "job_id": job_id,
                "served": served_entries,
                "requeued": requeued,
                "dead_letter": dead,
                "released_nodes": sorted(live),
                "resil": self._take_tally(),
            },
        )

    # ------------------------------------------------------------------
    # control-plane chaos
    # ------------------------------------------------------------------
    def _on_chaos(self, payload: Dict[str, object]) -> None:
        if "restore" in payload:
            self._restore_domain(tuple(payload["restore"]))  # type: ignore[arg-type]
            return
        index = int(payload["spec_index"])  # type: ignore[arg-type]
        if index in self._consumed_chaos:
            return  # already fired before a crash; replay consumed it
        spec = self.chaos.specs[index]
        self._consumed_chaos.add(index)
        if spec.kind == "service_crash":
            self._on_service_crash(index, spec)
        elif spec.kind == "domain_loss":
            self._on_domain_loss(index, spec)

    def _on_service_crash(self, index: int, spec: FaultSpec) -> None:
        """The control plane dies for ``spec.duration_s``: in-flight
        waves are lost (the completion event fires into the void) and
        arrivals shed until the service is back.  What happens to the
        lost work depends on the ``recovery`` mode."""
        self._down_until = max(self._down_until, self._now + spec.duration_s)
        self._bump("crashes")
        self._bump("recovery_seconds", spec.duration_s)
        if self.telemetry is not None:
            self.telemetry.metrics.counter("service_crashes_total").inc()
            self.telemetry.tracer.record(
                "service.crash", "marker", self._now, 0.0,
                down_until=self._down_until,
            )
        inflight = [man for _, man in sorted(self._inflight.items())]
        members_before = sum(len(m["requests"]) for m in inflight)  # type: ignore[arg-type]
        lost_work = sum(
            self._now - float(m["start_s"]) for m in inflight  # type: ignore[arg-type]
        )
        if self.recovery == "resume":
            canceled, directives = self._reconcile_resume(self._down_until)
        else:
            canceled, directives = self._reconcile_cold(spec.duration_s)
        self._ledger_outage(spec.duration_s, lost_work, (), members_before, 0)
        self._push(self._down_until, "ready")
        self._log(
            "chaos",
            {
                "spec_index": index,
                "down_until": self._down_until,
                "cancel_jobs": canceled,
                "drop_jobs": canceled,
                **directives,
                "resil": self._take_tally(),
            },
        )

    # ------------------------------------------------------------------
    # crash reconciliation — one function per recovery mode, run over
    # the live state by an in-run ``service_crash`` and by
    # :meth:`restore` alike.  Nodes are released / failed at the
    # current clock (``restore`` first sets it to the recovery time);
    # what else differs between the two callers is the one time
    # argument each takes.
    # ------------------------------------------------------------------
    def _reconcile_resume(
        self, requeue_t: float
    ) -> Tuple[List[str], Dict[str, object]]:
        """Durable-mode crash: every in-flight wave is dropped (its
        results were never durable), its surviving nodes go back to
        the pool, and its members re-enter the window at ``requeue_t``
        *without* an attempt bump — the crash was not their fault.
        Everything queued or backing off survives.  Returns the
        dropped job ids and the event directives."""
        canceled: List[str] = []
        released: List[int] = []
        requeued: List[Dict[str, object]] = []
        for job_id, man in sorted(self._inflight.items()):
            del self._inflight[job_id]
            canceled.append(job_id)
            released.extend(self._release_wave(man))
            for req in man["requests"]:  # type: ignore[union-attr]
                requeued.append(self._requeue(req, requeue_t))
        return canceled, {
            "released_nodes": sorted(released),
            "requeued": requeued,
        }

    def _reconcile_cold(
        self, stall_s: float
    ) -> Tuple[List[str], Dict[str, object]]:
        """Naive-restart crash: every request in the system (in
        flight, held, flushed, backing off) is dead-lettered, all
        online capacity is lost, and the pool regrows from its floor
        ``stall_s`` late.  Returns the dropped job ids and the event
        directives."""
        # a cold restart always states its dead-letter count, zero too
        self._tally.update(dead_letters=0, by_cause={"service_crash": 0})
        dead: List[Dict[str, object]] = []

        def abandon(req: SimRequest, attempts: int, job_id: str) -> None:
            record = AbandonedRecord(
                request_id=req.request_id,
                attempts=attempts,
                last_job_id=job_id,
                reason="lost in control-plane crash (cold restart)",
            )
            dead.append(self._dead_letter(record, "service_crash"))

        canceled = sorted(self._inflight)
        for job_id in canceled:
            for req in self._inflight.pop(job_id)["requests"]:  # type: ignore[union-attr]
                abandon(req, req.attempt + 1, job_id)
        for req in self.window.pending():
            abandon(req, req.attempt, "")
        for rb in self._ready:
            for req in rb.requests:
                abandon(req, req.attempt, "")
        dropped_releases = sorted(self._pending_release)
        for rid in dropped_releases:
            req, _ = self._pending_release.pop(rid)
            abandon(req, req.attempt, "")
        self.window = MovingWindow(self._window_policy)
        self._ready = []
        self._by_id.clear()
        doomed = [
            n
            for n in range(self.machine.n_nodes)
            if self.pool.state_of(n) != OFFLINE
        ]
        self.pool.fail_nodes(doomed, self._now)
        grow: Optional[Dict[str, object]] = None
        ready_at = self.pool.request_grow(
            self.pool.min_nodes, self._now, extra_delay_s=stall_s
        )
        if ready_at is not None:
            grow = {
                "nodes": sorted(self.pool.last_grown),
                "ready_at": ready_at,
            }
            self._push(ready_at, "ready")
        return canceled, {
            "dead_letter": dead,
            "drop_pending_release": dropped_releases,
            "clear_window": True,
            "failed_nodes": sorted(doomed),
            "pool_grow": grow,
        }

    def _on_domain_loss(self, index: int, spec: FaultSpec) -> None:
        """A whole fault domain (or single node, without declared
        domains) rips out: its nodes hard-fail, member shards placed
        on them are lost, survivors shrink-and-recover."""
        domains = self.machine.fault_domains
        if domains is not None:
            nodes = [
                n
                for n in domains.nodes_in(spec.node, self.machine.n_nodes)
            ]
        else:
            nodes = (
                [spec.node] if spec.node < self.machine.n_nodes else []
            )
        self._bump("domain_losses")
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "service_domain_losses_total"
            ).inc()
            self.telemetry.tracer.record(
                "service.domain_loss", "marker", self._now, 0.0,
                domain=int(spec.node), nodes=sorted(nodes),
            )
        self.pool.fail_nodes(nodes, self._now)
        for node in nodes:
            self.health.record(
                node,
                "crash",
                at_s=self._now,
                detail=f"fault domain {spec.node} lost",
            )
            self.health.quarantine(node)
        failed = set(nodes)
        canceled: List[str] = []
        released: List[int] = []
        requeued: List[Dict[str, object]] = []
        dead: List[Dict[str, object]] = []
        manifest_lost: Dict[str, List[str]] = {}
        update_jobs: Dict[str, Dict[str, object]] = {}
        all_lost_members = []
        for job_id, man in sorted(self._inflight.items()):
            job: PackedJob = man["job"]  # type: ignore[assignment]
            hit = failed & set(job.nodes)
            if not hit:
                continue
            man["dead_nodes"].update(hit)  # type: ignore[union-attr]
            lost_ids = []
            for m, req in enumerate(job.requests):
                if self._member_nodes(job, m) & failed:
                    lost_ids.append(req.request_id)
            if not lost_ids:
                continue  # rack died under ranks of no whole member
            lost_set = set(lost_ids)
            survivors = [
                rec
                for rec in man["completed"]  # type: ignore[union-attr]
                if rec.request_id not in lost_set
            ]
            newly_lost = [
                req
                for req in job.requests
                if req.request_id in lost_set
                and not any(
                    r.request_id == req.request_id
                    for r, _ in man["lost"]  # type: ignore[union-attr]
                )
            ]
            man["completed"] = survivors
            man["lost"] = list(man["lost"]) + [  # type: ignore[arg-type]
                (req, "domain_loss") for req in newly_lost
            ]
            manifest_lost[job_id] = sorted(lost_set)
            all_lost_members.extend(lost_ids)
            record: JobRecord = man["record"]  # type: ignore[assignment]
            new_record = dataclasses.replace(
                record,
                lost_request_ids=tuple(
                    sorted(set(record.lost_request_ids) | lost_set)
                ),
            )
            man["record"] = new_record
            for i, existing in enumerate(self._jobs):
                if existing.job_id == job_id:
                    self._jobs[i] = new_record
                    break
            update_jobs[job_id] = new_record.to_dict()
            if not survivors:
                # every member lost: the wave dies here, not at its
                # completion event — reconcile its losses immediately
                del self._inflight[job_id]
                canceled.append(job_id)
                released.extend(self._release_wave(man))
                again, gone = self._settle_lost(job_id, man["lost"])
                requeued.extend(again)
                dead.extend(gone)
        directives: Dict[str, object] = {
            "spec_index": index,
            "failed_nodes": sorted(failed),
            "quarantine": sorted(failed),
            "cancel_jobs": canceled,
            "drop_jobs": canceled,
            "released_nodes": sorted(released),
            "requeued": requeued,
            "dead_letter": dead,
            "manifest_lost": manifest_lost,
            "update_jobs": update_jobs,
            "incidents": self._health_delta(),
        }
        lost_work = sum(
            self._now - float(self._inflight[j]["start_s"])  # type: ignore[arg-type]
            for j in manifest_lost
            if j in self._inflight
        )
        members_after = sum(
            len(m["completed"]) for m in self._inflight.values()  # type: ignore[arg-type]
        )
        self._ledger_outage(
            0.0,
            lost_work,
            tuple(sorted(failed)),
            len(all_lost_members) + members_after,
            members_after,
        )
        if spec.duration_s > 0:
            restore_t = self._now + spec.duration_s
            self._pending_restores.append((restore_t, tuple(sorted(failed))))
            self._push(
                restore_t, "chaos", {"restore": sorted(failed)}
            )
            directives["restore_at"] = restore_t
        directives["resil"] = self._take_tally()
        self._log("chaos", directives)

    def _ledger_outage(
        self,
        detection_s: float,
        lost_work_s: float,
        failed_nodes: Tuple[int, ...],
        members_before: int,
        members_after: int,
    ) -> None:
        """Charge one control-plane fault to the recovery ledger (no
        step, rank or cmat block is involved at this level)."""
        self.ledger.record(
            RecoveryEvent(
                step=0,
                rolled_back_steps=0,
                detected_at_s=self._now,
                detection_s=detection_s,
                lost_work_s=lost_work_s,
                reassembly_s=0.0,
                rebuilt_blocks=0,
                failed_ranks=(),
                failed_nodes=failed_nodes,
                lost_members=(),
                n_members_before=members_before,
                n_members_after=members_after,
            )
        )

    def _member_nodes(self, job: PackedJob, member: int) -> set:
        """Physical node ids member ``member``'s ranks occupy."""
        rpm = job.shape.ranks_per_member
        rpn = self.machine.ranks_per_node
        return {
            job.nodes[r // rpn]
            for r in range(member * rpm, (member + 1) * rpm)
        }

    def _restore_domain(self, nodes: Tuple[int, ...]) -> None:
        """A lost domain's hardware comes back: clear its health
        ledger so the pool can provision those nodes again."""
        for node in nodes:
            self.health.reset(node)
        self._health_mark = len(self.health.incidents())
        self._pending_restores = [
            (t, ns)
            for t, ns in self._pending_restores
            if set(ns) != set(nodes)
        ]
        self._log("chaos", {"reset": sorted(nodes)})

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _force_drain(self) -> None:
        """Flush every held group regardless of size/age (end of
        traffic with an infinite hold bound)."""
        for batch in self.window.flush(self._now, force=True):
            self._admit_batch(batch)
        self._schedule()

    def _admit_batch(self, batch) -> None:
        self._batch_seq += 1
        rb = _ReadyBatch(
            seq=self._batch_seq,
            flushed_at=self._now,
            signature_key=batch.signature_key,
            requests=list(batch.requests),
        )
        self._ready.append(rb)
        self._log(
            "flush",
            {
                "seq": rb.seq,
                "signature_key": rb.signature_key,
                "request_ids": [r.request_id for r in rb.requests],
            },
        )

    def _schedule(self) -> None:
        """Flush ready groups, place them fair-share order, grow the
        pool for whatever stays blocked, and (re)arm timers."""
        for batch in self.window.flush(self._now):
            self._admit_batch(batch)
        progress = True
        while progress and self._ready:
            progress = False
            self._ready.sort(
                key=lambda b: self.fairness.batch_key(b.requests, b.seq)
            )
            for rb in self._ready:
                if self._try_place(rb):
                    # placement charged fair-share service: re-sort
                    # before picking the next batch
                    progress = True
                    break
        if self._ready:
            self._maybe_grow()
        else:
            # no blocked work wants the idle capacity: drain whatever
            # is overdue (reclaim deferred while batches were blocked)
            due = self.pool.next_reclaim()
            if due is not None and due <= self._now:
                reclaimed = self.pool.reclaim_idle(self._now)
                if reclaimed:
                    self._log(
                        "pool",
                        {"op": "reclaim", "nodes": sorted(reclaimed)},
                    )
        self._arm_timers()

    def _largest_shape(self, rb: _ReadyBatch, max_nodes: int):
        """The job shape of the largest prefix of ``rb`` that fits on
        ``max_nodes`` nodes (k descending; k=1 only in the FIFO
        baseline), or ``None`` when not even one member does."""
        top_k = len(rb.requests) if self.packer.prefer_larger_k else 1
        for k in range(top_k, 0, -1):
            shape = self.packer.shape_for(
                rb.requests[0].input, k, max_nodes=max_nodes
            )
            if shape is not None:
                return shape
        return None

    def _try_place(self, rb: _ReadyBatch) -> bool:
        """Dispatch the largest feasible prefix of ``rb`` onto free
        nodes; returns True when anything was placed."""
        free = self.pool.free_nodes(self._now)
        if not free:
            return False
        shape = self._largest_shape(rb, len(free))
        if shape is None:
            return False
        if self._job_seq >= MAX_DISPATCHES:
            raise ServiceError(
                f"service exceeded max_dispatches={MAX_DISPATCHES} "
                "(retry storm or misconfigured window?)"
            )
        members = rb.requests[: shape.k]
        nodes = self.packer.select_nodes(free, shape.n_nodes)
        self.pool.allocate(nodes, self._now)
        job = PackedJob(
            job_id=f"svc{self._job_seq:05d}",
            wave=self._job_seq,
            requests=tuple(members),
            signature_key=rb.signature_key,
            shape=shape,
            nodes=nodes,
        )
        self._job_seq += 1
        record, completed, lost = self.runner.dispatch(
            job, start_s=self._now, steps=self.steps
        )
        self._jobs.append(record)
        self.fairness.charge(members, shape.n_nodes * record.elapsed_s)
        if self.telemetry is not None:
            self.telemetry.metrics.counter("service_dispatch_total").inc()
            self.telemetry.metrics.gauge("service_pool_busy_nodes").max(
                float(self.pool.busy)
            )
        self._inflight[job.job_id] = {
            "requests": job.requests,
            "nodes": job.nodes,
            "dead_nodes": set(),
            "start_s": self._now,
            "job": job,
            "record": record,
            "completed": list(completed),
            "lost": [(req, "data_faults") for req in lost],
        }
        self._push(self._now + record.elapsed_s, "complete", job.job_id)
        self._log(
            "dispatch",
            {
                "job_id": job.job_id,
                "wave": job.wave,
                "signature_key": rb.signature_key,
                "nodes": sorted(nodes),
                "elapsed_s": record.elapsed_s,
                "ready_seq": rb.seq,
                "request_ids": [r.request_id for r in members],
                "record": record.to_dict(),
                "incidents": self._health_delta(),
                "tenant_served": self.fairness.served(),
            },
        )
        del rb.requests[: shape.k]
        if not rb.requests:
            self._ready.remove(rb)
        return True

    def _next_provision_fault(self) -> Optional[Tuple[int, FaultSpec]]:
        """The earliest armed ``provision_fail`` whose trigger time has
        passed, or ``None``."""
        for index, spec in self._provision_faults:
            if index in self._consumed_chaos:
                continue
            if spec.at_s <= self._now:
                return (index, spec)
        return None

    def _maybe_grow(self) -> None:
        """Ask the pool for the most underserved blocked batch's
        deficit, or prove the service is stuck and raise."""
        rb = min(
            self._ready,
            key=lambda b: self.fairness.batch_key(b.requests, b.seq),
        )
        target = self._largest_shape(rb, self.pool.max_nodes)
        if target is None:
            raise ServiceError(
                f"request {rb.requests[0].request_id!r} cannot fit on "
                f"{self.pool.max_nodes} node(s) of {self.machine.name} "
                "at any ensemble size — it would block the service forever"
            )
        free = len(self.pool.free_nodes(self._now))
        provisioning = self.pool.committed - self.pool.provisioned
        deficit = target.n_nodes - free - provisioning
        if deficit > 0:
            fault = self._next_provision_fault()
            stall: Dict[str, object] = {}
            if fault is not None:
                index, spec = fault
                self._consumed_chaos.add(index)
                if spec.duration_s <= 0:
                    # the provider refuses outright: charge the
                    # failure and retry the grow a beat later
                    self._bump("provision_failures")
                    if self.telemetry is not None:
                        self.telemetry.metrics.counter(
                            "service_provision_failures_total"
                        ).inc()
                        self.telemetry.tracer.record(
                            "pool.provision_fail", "marker",
                            self._now, 0.0, deficit=int(deficit),
                        )
                    self._log(
                        "pool",
                        {
                            "op": "grow_failed",
                            "nodes": [],
                            "spec_index": index,
                            "resil": self._take_tally(),
                        },
                    )
                    self._push(
                        self._now
                        + max(self.pool.provision_delay_s, 1.0),
                        "ready",
                    )
                    return
                # the grow goes through, late
                if self.telemetry is not None:
                    self.telemetry.tracer.record(
                        "pool.provision_stall", "marker", self._now, 0.0,
                        stall_s=float(spec.duration_s),
                    )
                stall = {"stall_s": spec.duration_s, "spec_index": index}
            ready_at = self.pool.request_grow(
                deficit, self._now, extra_delay_s=stall.get("stall_s", 0.0)  # type: ignore[arg-type]
            )
            if ready_at is not None:
                if stall:
                    self._bump("provision_stall_seconds", spec.duration_s)
                    stall["resil"] = self._take_tally()
                self._log(
                    "pool",
                    {
                        "op": "grow",
                        "nodes": sorted(self.pool.last_grown),
                        "ready_at": ready_at,
                        **stall,
                    },
                )
                self._push(ready_at, "ready")
                return
        if not self._inflight and provisioning == 0 and deficit > 0:
            if self._pending_restores or self._now < self._down_until:
                # capacity is coming back (a lost domain heals, or the
                # outage ends) — a chaos/ready event is already armed
                return
            raise ServiceError(
                f"service deadlocked: batch of {len(rb.requests)} "
                f"(signature {rb.signature_key}) needs {target.n_nodes} "
                f"node(s), only {free} allocatable, and the pool is at "
                f"its ceiling ({self.pool.max_nodes}) with nothing "
                "running — quarantined nodes?"
            )

    def _arm_timers(self) -> None:
        """Wake the loop at the next window expiry and the next idle
        reclaim, once each."""
        for due, armed, kind in (
            (self.window.next_expiry(), self._flush_timers, "flush"),
            (self.pool.next_reclaim(), self._reclaim_timers, "reclaim"),
        ):
            if (
                due is not None
                and math.isfinite(due)
                and due > self._now
                and due not in armed
            ):
                armed.add(due)
                self._push(due, kind)

    # ------------------------------------------------------------------
    # crash recovery (journal replay)
    # ------------------------------------------------------------------
    def restore(
        self,
        state,
        *,
        mode: str = "resume",
        resume_delay_s: float = 0.0,
    ) -> None:
        """Load a :class:`~repro.service.journal.ReplayState` into this
        freshly-constructed service, reconciling whatever the crash
        interrupted.  Follow with :meth:`resume`.

        ``mode`` is ``"resume"`` (exactly-once: keep durable results,
        requeue in-flight) or ``"cold"`` (restart-from-empty baseline);
        ``resume_delay_s`` models detection + restart downtime.
        """
        if mode not in RECOVERY_MODES:
            raise ServiceError(
                f"mode must be one of {RECOVERY_MODES}, got {mode!r}"
            )
        if resume_delay_s < 0:
            raise ServiceError(
                f"resume_delay_s must be >= 0, got {resume_delay_s}"
            )
        if self._now != 0.0 or self._served or self._jobs:
            raise ServiceError(
                "restore() needs a freshly constructed service"
            )
        t_rec = float(state.t) + float(resume_delay_s)
        self._now = t_rec
        backoffs = self._load(state)
        self._bump("wal_recoveries")
        self._bump("recovery_seconds", resume_delay_s)
        # the reconciliation an in-run crash runs, at the WAL's times:
        # members requeue at the recovery instant, the regrow is prompt
        if mode == "resume":
            _, directives = self._reconcile_resume(t_rec)
        else:
            _, directives = self._reconcile_cold(0.0)
        # retry backoffs that survived keep their release times
        for req, release_t in backoffs:
            if req.request_id in self._pending_release:
                self._push(release_t, "release", req)
        # pending provisioning completions become wake-ups again
        for rt in self.pool.ready_times():
            self._push(max(rt, t_rec), "ready")
        # domain restores that had not fired yet
        for entry in state.pending_restores:
            restore_t = max(float(entry["t"]), t_rec)
            nodes = tuple(int(n) for n in entry["nodes"])
            self._pending_restores.append((restore_t, nodes))
            self._push(restore_t, "chaos", {"restore": sorted(nodes)})
        self._arm_chaos(t_rec)
        if self._down_until > t_rec:
            self._push(self._down_until, "ready")
        if self.journal is not None:
            self.journal.seed(state)
        self._log(
            "recover",
            {
                "mode": mode,
                "drop_jobs": sorted(state.inflight),
                **directives,
                "resil": self._take_tally(),
            },
        )
        self._recovered = (t_rec, set(state.arrived_ids))

    def _load(self, state) -> List[Tuple[SimRequest, float]]:
        """Turn the mirror dicts of ``state`` back into the live state
        an in-run crash would find at the current clock: the durable
        books, the window and ready queue, and an in-flight manifest
        per wave the WAL never saw complete.  Returns the retry
        backoffs it loaded, as ``(request, release time)``, so the
        caller can re-arm the timers of those that survive."""
        self.admission.offered = int(state.offered)
        self.admission.admitted = int(state.admitted)
        self.admission.rejections = [
            RejectionRecord.from_dict(d) for d in state.rejections
        ]
        self._served = [ServedRecord.from_dict(d) for d in state.served]
        self._abandoned = [
            AbandonedRecord.from_dict(d) for d in state.abandoned
        ]
        self._jobs = [JobRecord.from_dict(d) for d in state.jobs]
        self.fairness.restore_served(state.tenant_served)
        self._job_seq = int(state.job_seq)
        self._batch_seq = int(state.batch_seq)
        self._resil = dict(state.resil)
        self._dead_by_cause = dict(state.dead_by_cause)
        self._consumed_chaos = set(state.consumed_chaos)
        self._down_until = float(state.down_until)
        if state.pool is not None:
            self.pool.restore(state.pool)
        self.health.restore(state.health)
        self._health_mark = len(self.health.incidents())
        for entry in state.window:
            req = SimRequest.from_dict(entry["request"])
            self._by_id[req.request_id] = req
            self.window.add(req, float(entry["since"]))
        for b in state.ready:
            reqs = [SimRequest.from_dict(d) for d in b["requests"]]
            for r in reqs:
                self._by_id[r.request_id] = r
            self._ready.append(
                _ReadyBatch(
                    seq=int(b["seq"]),
                    flushed_at=float(b["flushed_at"]),
                    signature_key=str(b["signature_key"]),
                    requests=reqs,
                )
            )
        for job_id, man in state.inflight.items():
            if man["canceled"]:
                continue  # already reconciled; the caller drops it
            nodes = tuple(int(n) for n in man["nodes"])
            self._inflight[job_id] = {
                "requests": tuple(
                    SimRequest.from_dict(d) for d in man["requests"]
                ),
                "nodes": nodes,
                # the WAL marks lost nodes only in the pool mirror
                "dead_nodes": {
                    n for n in nodes if self.pool.state_of(n) != BUSY
                },
                "start_s": float(man["start_s"]),
            }
        backoffs: List[Tuple[SimRequest, float]] = []
        for entry in state.pending_release:
            req = SimRequest.from_dict(entry["request"])
            release_t = max(float(entry["release_t"]), self._now)
            self._pending_release[req.request_id] = (req, release_t)
            backoffs.append((req, release_t))
        return backoffs

    def resume(self, horizon_s: float) -> ServiceReport:
        """Finish a restored run: regenerate the traffic horizon, skip
        arrivals the journal already saw, and drive the loop to empty.
        Only valid after :meth:`restore`."""
        if self._recovered is None:
            raise ServiceError("resume() requires restore() first")
        self._open(horizon_s, *self._recovered)
        if self._now >= self._down_until:
            # the crash may have landed between a flush and its
            # dispatch: the restored ready batches have no pending
            # event to place them, so schedule once at recovery time
            self._schedule()
        self._loop()
        return self._finish(horizon_s)
