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

The control plane's state is one
:class:`~repro.service.journal.ReplayState` (``self.state``) and the
loop never writes it: a handler *decides* (which requests, which
nodes, retry or dead-letter), builds the WAL event that says so, and
:meth:`OnlineService._log` applies that event —
:meth:`ReplayState.apply <repro.service.journal.ReplayState.apply>` is
the only writer of the books, counters, queues and pool, live and on
replay alike (DESIGN.md §5c).  What the loop keeps for itself is what
no event carries: the event heap and timers, the request objects
behind the state's dicts, a dispatched wave's packed job and outcome
until its ``complete`` event, telemetry and the monitor.  The control
plane is itself a fault domain:

- with a :class:`~repro.service.journal.ServiceJournal` installed,
  every applied event is also appended to the WAL — a
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

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import ServiceError
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
from repro.service.admission import (
    UNATTRIBUTED,
    AdmissionController,
    FairSharePolicy,
    RejectionRecord,
)
from repro.service.journal import ReplayState
from repro.service.pool import BUSY, OFFLINE, ElasticNodePool, PoolSample
from repro.service.report import (
    SERVICE_TTR_BUCKETS,
    ServedRecord,
    ServiceReport,
    tenant_summary,
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

#: The fold's resilience totals a report states, absent ones as zero.
_RESIL_COUNTS = (
    "retries", "dead_letters", "crashes", "provision_failures",
    "domain_losses", "downtime_shed", "wal_recoveries",
)
_RESIL_SECONDS = ("recovery_seconds", "provision_stall_seconds", "lost_work_seconds")
#: Totals also counted as ``service_<key>_total``, which
#: :meth:`OnlineService._log` bumps from each event's ``resil`` block.
_RESIL_COUNTERS = (
    "retries", "dead_letters", "crashes", "domain_losses", "provision_failures",
)

#: Hard cap on total dispatches of one run, a backstop against a retry
#: configuration that never converges.
MAX_DISPATCHES = 100_000


@dataclass
class _Wave:
    """What no WAL event carries of a dispatched wave, kept until its
    ``complete`` event (or until a crash reconciles it away): the
    packed job, its outcome, and which of its nodes died under it."""

    job: PackedJob
    completed: list
    lost: list  # fault-lost members as (request, cause)
    dead_nodes: Set[int] = field(default_factory=set, init=False)


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
    use_cache / retry / node_faults / telemetry:
        Forwarded to the underlying :class:`CampaignRunner` — dispatch
        semantics are identical to the batch path (``retry`` and
        ``node_faults`` are the only way a data-plane fault reaches a
        service job).
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
        use_cache: bool = True,
        retry: Optional[RetryPolicy] = RetryPolicy(),
        node_faults=None,
        telemetry=None,
        monitor=None,
    ) -> None:
        self.machine = machine
        self.traffic = traffic
        self._window_policy = window
        self.admission = AdmissionController(max_pending)
        self.fairness = FairSharePolicy(weights)
        if steps is not None and steps < 1:
            raise ServiceError(f"steps must be >= 1, got {steps}")
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
        self.health = NodeHealthTracker()
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
            use_cache=use_cache,
            retry=retry,
            health=self.health,
            node_faults=node_faults,
            telemetry=telemetry,
            checker_factory=checker_factory,
        )
        #: the control plane's state — the journal's own when one is
        #: attached; :meth:`_log` → ``ReplayState.apply`` is its writer
        self.state: ReplayState = (
            journal.state if journal is not None else ReplayState()
        )
        # volatile run state: nothing below is in the WAL
        self._heap: List[Tuple[float, int, int, str, object]] = []
        self._seq = 0
        self._now = 0.0
        # the request object behind each request dict the state holds
        self._by_id: Dict[str, SimRequest] = {}
        # dispatched waves by job id; the heap's "complete" payload is
        # the job id, so chaos can reconcile a wave (drop it, kill
        # members) before its completion fires
        self._waves: Dict[str, _Wave] = {}
        self._flush_timers: set = set()
        self._reclaim_timers: set = set()
        # what the open transition adds to the resilience totals — the
        # ``resil`` block of the WAL event that will describe it
        self._tally: Dict[str, object] = {}
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

    def _live(self, d: Dict[str, object]) -> SimRequest:
        """The request object behind state dict ``d``: the one its
        arrival or release registered, parsed from ``d`` only after a
        recovery."""
        rid = str(d["request_id"])
        if rid not in self._by_id:
            self._by_id[rid] = SimRequest.from_dict(d)
        return self._by_id[rid]

    # ------------------------------------------------------------------
    # read-only state for the monitoring plane (pure observations; the
    # monitor must never mutate service state)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched, right now (the
        admission bound's denominator): window holds plus
        flushed-unplaced."""
        return len(self.state.window) + sum(
            len(b["requests"]) for b in self.state.ready  # type: ignore[arg-type]
        )

    @property
    def inflight_jobs(self) -> int:
        """Waves dispatched but not yet completed (or canceled)."""
        return len(self.state.inflight)

    def _log(self, kind: str, payload: Dict[str, object]) -> None:
        """Apply one event, stamped at the current sim clock, to
        ``self.state`` — through the journal when one is attached,
        which folds it into that same state and appends it to the WAL
        (an injected crash propagates).  The event that describes a
        transition carries its tally (:meth:`_take_tally`); one still
        open here was bumped by a handler that never journaled it.  The
        applied tally also bumps its ``_RESIL_COUNTERS`` counters."""
        if self._tally:
            raise ServiceError(
                f"resilience tally {self._tally} was not journaled "
                f"before the {kind} event"
            )
        event = {"t": self._now, **payload}
        if self.journal is not None:
            self.journal.append(kind, event)
        else:
            self.state.apply(kind, event)
        if self.telemetry is not None:
            for key, amount in payload.get("resil", {}).items():  # type: ignore[union-attr]
                if key in _RESIL_COUNTERS and amount:
                    self.telemetry.metrics.counter(f"service_{key}_total").inc(amount)

    def _count(self, name: str, **labels: str) -> None:
        """Increment a telemetry counter, when telemetry is installed."""
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name, **labels).inc()

    def _mark(self, name: str, **attrs: object) -> None:
        """Drop a zero-length trace marker at the current sim clock."""
        if self.telemetry is not None:
            self.telemetry.tracer.record(
                name, "marker", self._now, 0.0, **attrs
            )

    def _health_delta(self) -> List[Dict[str, object]]:
        """The tracker's incidents the state's journal of it does not
        hold yet, as dicts."""
        held = len(self.state.health["incidents"])  # type: ignore[arg-type]
        return [i.to_dict() for i in self.health.incidents()[held:]]

    def _bump(self, key: str, amount: float = 1) -> None:
        """Add to the open event's tally of a resilience total."""
        self._tally[key] = self._tally.get(key, 0) + amount  # type: ignore[operator]

    def _take_tally(self) -> Dict[str, object]:
        """Close the open tally: the ``resil`` block of the event
        being journaled, exactly what its handler bumped."""
        tally, self._tally = self._tally, {}
        return tally

    def _dead_letter(
        self, record: AbandonedRecord, cause: str
    ) -> Dict[str, object]:
        """Tally ``record`` as dead-lettered under ``cause``; returns
        its journal entry (the fold puts it on the dead-letter list)."""
        self._by_id.pop(record.request_id, None)
        self._bump("dead_letters")
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
                "pool": self.pool.book,  # the fold copies it
                "health": self.health.to_dict(),
            },
        )
        self.pool.restore(self.state.pool)  # type: ignore[arg-type]
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
        for i, spec in enumerate(self.chaos.specs if self.chaos else ()):
            if (
                spec.kind in CONTROL_KINDS
                and spec.kind != "provision_fail"  # fires inside a grow
                and i not in self.state.consumed_chaos
            ):
                self._push(
                    max(spec.at_s, t_floor), "chaos", {"spec_index": i}
                )

    def _loop(self) -> None:
        while self._heap or self.state.window or self.state.ready:
            if not self._heap:
                # nothing scheduled but requests still held: only
                # possible with an infinite hold bound and a group
                # below min_batch — drain it at the current clock
                if self.state.window:
                    self._schedule(force=True)
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
            came_up = self.pool.due_ready(self._now)
            if came_up:
                self._log("pool", {"op": "ready", "nodes": came_up})
                self._mark("pool.ready", nodes=came_up)
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
            # "ready" has no payload: due_ready above did the work
            if self._now < self.state.down_until:
                continue  # control plane is down: no scheduling
            self._schedule()

    def _finish(self, horizon_s: float) -> ServiceReport:
        # close the books at the final clock, so the pool integral —
        # live and on any replay — covers the idle tail after the last
        # state transition
        self._log("end", {})
        state = self.state
        served = [ServedRecord.from_dict(d) for d in state.served]
        report = ServiceReport(
            machine_name=self.machine.name,
            machine_n_nodes=self.machine.n_nodes,
            horizon_s=float(horizon_s),
            duration_s=self._now,
            offered=state.offered,
            served=served,
            rejections=[RejectionRecord.from_dict(d) for d in state.rejections],
            abandoned=[AbandonedRecord.from_dict(d) for d in state.abandoned],
            jobs=[JobRecord.from_dict(d) for d in state.jobs],
            cache=self.runner.cache.stats() if self.runner.cache is not None else {},
            pool_node_seconds=self.pool.node_seconds,
            pool_timeline=[PoolSample(**d) for d in state.pool_timeline],  # type: ignore[arg-type]
            tenants=tenant_summary(served, state.tenant_served),
            resilience=self._resilience_summary(),
            monitoring=(
                self.monitor.finish(self, self._now) if self.monitor is not None else None
            ),
        )
        tele = self.telemetry
        if tele is not None:
            tele.tracer.time_offset = 0.0
            tele.tracer.end(self._now)
            tele.metrics.gauge("service_pool_peak_nodes").max(report.peak_pool_nodes)
            for key, val in report.cache.items():
                tele.metrics.gauge(f"service_cache_{key}").set(val)
        return report

    def _resilience_summary(self) -> Dict[str, object]:
        """The report's resilience block (empty on a fault-free run)."""
        resil, by_cause = self.state.resil, self.state.dead_by_cause
        if not (resil or by_cause):
            return {}
        return {
            **{k: int(resil.get(k, 0)) for k in _RESIL_COUNTS},
            **{k: float(resil.get(k, 0.0)) for k in _RESIL_SECONDS},
            # a cold restart journals its count even when it is zero;
            # the report lists only causes that killed something
            "dead_letters_by_cause": {
                k: int(v) for k, v in sorted(by_cause.items()) if v
            },
            "data_plane_recoveries": int(
                sum(j["n_recoveries"] for j in self.state.jobs)  # type: ignore[misc]
            ),
        }

    # ------------------------------------------------------------------
    # event handlers — each decides, builds its event, and logs it
    # ------------------------------------------------------------------
    def _on_arrival(self, req: SimRequest) -> None:
        tenant = req.tenant or UNATTRIBUTED
        self._count("service_arrivals_total", tenant=tenant)
        down = self._now < self.state.down_until
        rejection = self.admission.try_admit(
            req,
            self.queue_depth,
            down_until=self.state.down_until if down else None,
        )
        if down:
            self._bump("downtime_shed")
        if rejection is not None:
            self._count("service_shed_total", tenant=tenant)
            entry = {
                "request": req.to_dict(),
                "outcome": "shed",
                "rejection": rejection.to_dict(),
            }
            if self._tally:  # only a downtime shed counts as a fault
                entry["resil"] = self._take_tally()
            self._log("arrival", entry)
            return
        self._by_id[req.request_id] = req
        self._log(
            "arrival", {"request": req.to_dict(), "outcome": "admit"}
        )

    def _on_release(self, req: SimRequest) -> None:
        """A retry's backoff elapsed: back into the window (admission
        was already paid on first arrival)."""
        if all(
            e["request"]["request_id"] != req.request_id  # type: ignore[index]
            for e in self.state.pending_release
        ):
            # the request was dead-lettered by a cold crash while its
            # backoff was pending — the timer fires into the void
            return
        self._by_id[req.request_id] = req
        self._log("release", {"request": req.to_dict()})

    def _requeue(
        self, req: SimRequest, release_t: float
    ) -> Dict[str, object]:
        """Arm the timer that re-enters ``req`` into the window at
        ``release_t`` and return the journal entry describing it."""
        self._push(release_t, "release", req)
        return {"request": req.to_dict(), "release_t": release_t}

    def _settle_lost(
        self, job_id: str, lost
    ) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
        """Retry-or-dead-letter each fault-lost ``(member, cause)`` of
        wave ``job_id``; returns the journal entries of the outcomes,
        ``(requeued, dead)``."""
        requeued: List[Dict[str, object]] = []
        dead: List[Dict[str, object]] = []
        for req, cause in lost:
            outcome = retry_or_abandon(self.runner.retry, req, job_id)
            if isinstance(outcome, AbandonedRecord):
                dead.append(self._dead_letter(outcome, cause))
                continue
            self._bump("retries")
            requeued.append(
                self._requeue(req.requeued(), self._now + outcome)
            )
        return requeued, dead

    def _outcome(self, wave: _Wave, lost_ids) -> Tuple[list, list]:
        """What wave ``wave`` has to show given the member ids
        ``lost_ids`` that domain losses took from it: the completions
        that survive, and every fault loss as ``(request, cause)`` —
        the dispatch's own first, then the domain's in member order."""
        gone = set(lost_ids)
        faulted = {req.request_id for req, _ in wave.lost}
        return (
            [c for c in wave.completed if c.request_id not in gone],
            wave.lost
            + [
                (req, "domain_loss")
                for req in wave.job.requests
                if req.request_id in gone - faulted
            ],
        )

    def _surviving_nodes(
        self, job_id: str, man: Dict[str, object]
    ) -> List[int]:
        """The nodes a finished or canceled wave hands back to the
        pool: all of its own but those that died under it."""
        wave = self._waves.get(job_id)
        if wave is not None:
            dead = wave.dead_nodes
        else:  # a recovered wave: the WAL marks lost nodes only in the pool
            dead = {
                n
                for n in man["nodes"]  # type: ignore[union-attr]
                if self.pool.state_of(n) != BUSY
            }
        return [n for n in man["nodes"] if n not in dead]  # type: ignore[union-attr]

    def _on_complete(self, job_id: str) -> None:
        man = self.state.inflight.get(job_id)
        if man is None:
            return  # the wave was reconciled away by a crash
        live = self._surviving_nodes(job_id, man)
        wave = self._waves.pop(job_id)
        completed, lost = self._outcome(wave, man["lost_ids"])
        tele = self.telemetry
        served_entries: List[Dict[str, object]] = []
        for rec in completed:
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
            served_entries.append(served.to_dict())
            self._count("service_completions_total", tenant=served.tenant)
            if tele is not None:
                tele.metrics.histogram(
                    "service_ttr_seconds", buckets=SERVICE_TTR_BUCKETS
                ).observe(served.ttr_s)
                tele.metrics.histogram("service_wait_seconds").observe(
                    served.wait_s
                )
            if not served.slo_met:
                self._count("service_slo_miss_total", tenant=served.tenant)
        requeued, dead = self._settle_lost(job_id, lost)
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
        if index in self.state.consumed_chaos:
            return  # already fired before a crash; replay consumed it
        spec = self.chaos.specs[index]
        if spec.kind == "service_crash":
            self._on_service_crash(index, spec)
        elif spec.kind == "domain_loss":
            self._on_domain_loss(index, spec)

    def _on_service_crash(self, index: int, spec: FaultSpec) -> None:
        """The control plane dies for ``spec.duration_s``: in-flight
        waves are lost (the completion event fires into the void) and
        arrivals shed until the service is back.  What happens to the
        lost work depends on the ``recovery`` mode."""
        down_until = max(self.state.down_until, self._now + spec.duration_s)
        self._bump("crashes")
        self._bump("recovery_seconds", spec.duration_s)
        inflight = sorted(self.state.inflight.items())
        lost = sum(self._now - float(m["start_s"]) for _, m in inflight)  # type: ignore[arg-type]
        self._bump("lost_work_seconds", lost)
        self._mark("service.crash", down_until=down_until)
        if self.recovery == "resume":
            canceled, directives = self._reconcile_resume(down_until)
        else:
            canceled, directives = self._reconcile_cold(spec.duration_s)
        self._push(down_until, "ready")
        self._log(
            "chaos",
            {
                "spec_index": index,
                "down_until": down_until,
                "cancel_jobs": canceled,
                "drop_jobs": canceled,
                **directives,
                "resil": self._take_tally(),
            },
        )

    # ------------------------------------------------------------------
    # reconciliation — one function per way of losing work, each
    # returning ``(dropped job ids, event directives)`` for its caller
    # to log.  The two crash modes run for an in-run ``service_crash``
    # and for :meth:`restore` alike: nodes are released / failed at the
    # current clock (``restore`` first sets it to the recovery time);
    # what else differs between the callers is the one time argument.
    # ------------------------------------------------------------------
    def _reconcile_resume(
        self, requeue_t: float
    ) -> Tuple[List[str], Dict[str, object]]:
        """Durable-mode crash: every in-flight wave is dropped (its
        results were never durable), its surviving nodes go back to
        the pool, and its members re-enter the window at ``requeue_t``
        *without* an attempt bump — the crash was not their fault.
        Everything queued or backing off survives."""
        canceled: List[str] = []
        released: List[int] = []
        requeued: List[Dict[str, object]] = []
        for job_id, man in sorted(self.state.inflight.items()):
            canceled.append(job_id)
            released.extend(self._surviving_nodes(job_id, man))
            self._waves.pop(job_id, None)
            for d in man["requests"]:  # type: ignore[union-attr]
                requeued.append(self._requeue(self._live(d), requeue_t))
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
        ``stall_s`` late."""
        # a cold restart always states its dead-letter count, zero too
        self._tally.update(dead_letters=0, by_cause={"service_crash": 0})
        dead: List[Dict[str, object]] = []

        def abandon(d, attempts: int, job_id: str) -> None:
            record = AbandonedRecord(
                request_id=d["request_id"],
                attempts=attempts,
                last_job_id=job_id,
                reason="lost in control-plane crash (cold restart)",
            )
            dead.append(self._dead_letter(record, "service_crash"))

        state = self.state
        canceled = sorted(state.inflight)
        for job_id in canceled:
            for d in state.inflight[job_id]["requests"]:  # type: ignore[union-attr]
                abandon(d, d["attempt"] + 1, job_id)
        backing_off = sorted(
            (e["request"] for e in state.pending_release),
            key=lambda d: d["request_id"],  # type: ignore[index]
        )
        for d in (
            [e["request"] for e in state.window]
            + [d for rb, _ in self._ready_order() for d in rb["requests"]]  # type: ignore[union-attr]
            + backing_off
        ):
            abandon(d, d["attempt"], "")  # type: ignore[index]
        self._by_id.clear()
        self._waves.clear()
        doomed = [
            n
            for n in range(self.machine.n_nodes)
            if self.pool.state_of(n) != OFFLINE
        ]
        grow: Optional[Dict[str, object]] = None
        picked = self.pool.pick_grow(
            self.pool.min_nodes,
            self._now,
            extra_delay_s=stall_s,
            failed=doomed,
        )
        if picked is not None:
            grow = {"nodes": sorted(picked[0]), "ready_at": picked[1]}
            self._push(picked[1], "ready")
        return canceled, {
            "dead_letter": dead,
            "drop_pending_release": [d["request_id"] for d in backing_off],  # type: ignore[index]
            "clear_window": True,
            "failed_nodes": sorted(doomed),
            "pool_grow": grow,
        }

    def _reconcile_domain_loss(
        self, failed: Set[int]
    ) -> Tuple[List[str], Dict[str, object]]:
        """Hardware loss: every member shard placed on a ``failed``
        node is lost with it, and its wave's job record says so; a
        wave left with no member dies here, not at its completion
        event — nodes released, losses settled at once.  Tallies the
        work the hit waves that live on lost."""
        lost_work: List[float] = []  # of the hit waves that live on
        canceled: List[str] = []
        released: List[int] = []
        requeued: List[Dict[str, object]] = []
        dead: List[Dict[str, object]] = []
        manifest_lost: Dict[str, List[str]] = {}
        update_jobs: Dict[str, Dict[str, object]] = {}
        for job_id, man in sorted(self.state.inflight.items()):
            wave = self._waves[job_id]
            job = wave.job
            wave.dead_nodes |= failed & set(job.nodes)
            rpm, rpn = job.shape.ranks_per_member, self.machine.ranks_per_node
            lost_ids = {  # the members with a rank on a failed node
                req.request_id
                for m, req in enumerate(job.requests)
                if {job.nodes[r // rpn] for r in range(m * rpm, (m + 1) * rpm)} & failed
            }
            completed, lost = self._outcome(
                wave, lost_ids | set(man["lost_ids"])  # type: ignore[arg-type]
            )
            if not lost_ids:
                continue  # untouched, or hit under ranks of no whole member
            manifest_lost[job_id] = sorted(lost_ids)
            record = next(j for j in self.state.jobs if j["job_id"] == job_id)
            update_jobs[job_id] = {
                **record,
                "lost_request_ids": sorted(
                    lost_ids | set(record["lost_request_ids"])  # type: ignore[arg-type]
                ),
            }
            if completed:
                lost_work.append(self._now - float(man["start_s"]))  # type: ignore[arg-type]
            else:
                canceled.append(job_id)
                released.extend(self._surviving_nodes(job_id, man))
                del self._waves[job_id]
                again, gone = self._settle_lost(job_id, lost)
                requeued.extend(again)
                dead.extend(gone)
        self._bump("lost_work_seconds", sum(lost_work))
        return canceled, {
            "released_nodes": sorted(released),
            "requeued": requeued,
            "dead_letter": dead,
            "manifest_lost": manifest_lost,
            "update_jobs": update_jobs,
        }

    def _on_domain_loss(self, index: int, spec: FaultSpec) -> None:
        """A whole fault domain (or single node, without declared
        domains) rips out: its nodes hard-fail, member shards placed
        on them are lost, survivors shrink-and-recover."""
        domains, n_nodes = self.machine.fault_domains, self.machine.n_nodes
        if domains is not None:
            nodes = list(domains.nodes_in(spec.node, n_nodes))
        else:
            nodes = [spec.node] if spec.node < n_nodes else []
        self._bump("domain_losses")
        self._mark(
            "service.domain_loss", domain=int(spec.node), nodes=sorted(nodes)
        )
        # the tracker is the data plane's (the runner charges it
        # mid-dispatch): charged here, journaled as the incident delta
        for node in nodes:
            self.health.record(
                node,
                "crash",
                at_s=self._now,
                detail=f"fault domain {spec.node} lost",
            )
            self.health.quarantine(node)
        failed = sorted(set(nodes))
        canceled, directives = self._reconcile_domain_loss(set(failed))
        if spec.duration_s > 0:
            restore_t = self._now + spec.duration_s
            self._push(restore_t, "chaos", {"restore": failed})
            directives["restore_at"] = restore_t
        self._log(
            "chaos",
            {
                "spec_index": index,
                "failed_nodes": failed,
                "quarantine": failed,
                "cancel_jobs": canceled,
                "drop_jobs": canceled,
                **directives,
                "incidents": self._health_delta(),
                "resil": self._take_tally(),
            },
        )

    def _restore_domain(self, nodes: Tuple[int, ...]) -> None:
        """A lost domain's hardware comes back: clear its health
        ledger so the pool can provision those nodes again."""
        for node in nodes:
            self.health.reset(node)
        self._log("chaos", {"reset": sorted(nodes)})

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _window_view(self) -> MovingWindow:
        """The window the state holds as a throw-away
        :class:`MovingWindow`: which groups are due, and when the next
        hold expires after they flush, are its calls."""
        view = MovingWindow(self._window_policy)
        for e in self.state.window:
            view.add(self._live(e["request"]), e["since"])  # type: ignore[arg-type]
        return view

    def _ready_order(
        self,
    ) -> List[Tuple[Dict[str, object], List[SimRequest]]]:
        """The flushed-unplaced batches as ``(batch, its requests)``,
        in dispatch order: fair share across tenants, EDF within."""
        order = [
            (b, [self._live(d) for d in b["requests"]])  # type: ignore[union-attr]
            for b in self.state.ready
        ]
        order.sort(
            key=lambda e: self.fairness.batch_key(
                self.state.tenant_served, e[1], e[0]["seq"]  # type: ignore[arg-type]
            )
        )
        return order

    def _schedule(self, *, force: bool = False) -> None:
        """Flush the window groups that are due (``force``: every held
        group, whatever its size or age — end of traffic with an
        infinite hold bound), place them fair-share order, grow the
        pool for whatever stays blocked, and (re)arm timers."""
        view = self._window_view()
        for batch in view.flush(self._now, force=force):
            self._log(
                "flush",
                {
                    "seq": self.state.batch_seq + 1,
                    "signature_key": batch.signature_key,
                    "request_ids": [r.request_id for r in batch.requests],
                },
            )
        # a placement charges fair-share service: re-sort before
        # picking the next batch
        while any(self._try_place(*rb) for rb in self._ready_order()):
            pass
        if self.state.ready:
            self._maybe_grow()
        else:
            # no blocked work wants the idle capacity: drain whatever
            # is overdue (reclaim deferred while batches were blocked)
            due = self.pool.next_reclaim()
            if due is not None and due <= self._now:
                reclaimed = self.pool.pick_reclaim(self._now)
                if reclaimed:
                    self._log(
                        "pool",
                        {"op": "reclaim", "nodes": sorted(reclaimed)},
                    )
        self._arm_timers(view.next_expiry())

    def _try_place(
        self, rb: Dict[str, object], reqs: List[SimRequest]
    ) -> bool:
        """Dispatch the largest feasible prefix of ready batch ``rb``
        (requests ``reqs``) onto free nodes; returns True when anything
        was placed."""
        free = self.pool.free_nodes(self._now)
        if not free:
            return False
        shape = self.packer.largest_shape(reqs, len(free))
        if shape is None:
            return False
        wave = self.state.job_seq
        if wave >= MAX_DISPATCHES:
            raise ServiceError(
                f"service exceeded max_dispatches={MAX_DISPATCHES} "
                "(retry storm or misconfigured window?)"
            )
        members = reqs[: shape.k]
        job = PackedJob(
            job_id=f"svc{wave:05d}",
            wave=wave,
            requests=tuple(members),
            signature_key=str(rb["signature_key"]),
            shape=shape,
            nodes=self.packer.select_nodes(free, shape.n_nodes),
        )
        record, completed, lost = self.runner.dispatch(
            job, start_s=self._now, steps=self.steps
        )
        self._waves[job.job_id] = _Wave(
            job, list(completed), [(req, "data_faults") for req in lost]
        )
        self._push(self._now + record.elapsed_s, "complete", job.job_id)
        self._log(
            "dispatch",
            {
                "job_id": job.job_id,
                "wave": wave,
                "signature_key": job.signature_key,
                "nodes": sorted(job.nodes),
                "elapsed_s": record.elapsed_s,
                "ready_seq": rb["seq"],
                "request_ids": [r.request_id for r in members],
                "record": record.to_dict(),
                "incidents": self._health_delta(),
                "tenant_served": self.fairness.charge(
                    self.state.tenant_served,
                    members,
                    shape.n_nodes * record.elapsed_s,
                ),
            },
        )
        self._count("service_dispatch_total")
        if self.telemetry is not None:
            self.telemetry.metrics.gauge("service_pool_busy_nodes").max(
                float(self.pool.busy)
            )
        return True

    def _next_provision_fault(self) -> Optional[Tuple[int, FaultSpec]]:
        """The earliest unconsumed ``provision_fail`` whose trigger
        time has passed, or ``None``."""
        due = [
            (spec.at_s, i, spec)
            for i, spec in enumerate(self.chaos.specs if self.chaos else ())
            if spec.kind == "provision_fail"
            and i not in self.state.consumed_chaos
            and spec.at_s <= self._now
        ]
        return min(due)[1:] if due else None  # type: ignore[return-value]

    def _maybe_grow(self) -> None:
        """Ask the pool for the most underserved blocked batch's
        deficit, or prove the service is stuck and raise."""
        rb, reqs = self._ready_order()[0]
        target = self.packer.largest_shape(reqs, self.pool.max_nodes)
        if target is None:
            raise ServiceError(
                f"request {reqs[0].request_id!r} cannot fit on "
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
                if spec.duration_s <= 0:
                    # the provider refuses outright: charge the
                    # failure and retry the grow a beat later
                    self._bump("provision_failures")
                    self._mark("pool.provision_fail", deficit=int(deficit))
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
                stall = {"stall_s": spec.duration_s, "spec_index": index}
            picked = self.pool.pick_grow(
                deficit, self._now, extra_delay_s=stall.get("stall_s", 0.0)  # type: ignore[arg-type]
            )
            if picked is not None:
                nodes, ready_at = picked
                if stall:  # consumed only by the grow it actually stalls
                    self._mark(
                        "pool.provision_stall", stall_s=float(spec.duration_s)
                    )
                    self._bump("provision_stall_seconds", spec.duration_s)
                    stall["resil"] = self._take_tally()
                self._log(
                    "pool",
                    {
                        "op": "grow",
                        "nodes": sorted(nodes),
                        "ready_at": ready_at,
                        **stall,
                    },
                )
                self._push(ready_at, "ready")
                return
        if not self.state.inflight and provisioning == 0 and deficit > 0:
            if (
                self.state.pending_restores
                or self._now < self.state.down_until
            ):
                # capacity is coming back (a lost domain heals, or the
                # outage ends) — a chaos/ready event is already armed
                return
            raise ServiceError(
                f"service deadlocked: batch of {len(reqs)} "
                f"(signature {rb['signature_key']}) needs {target.n_nodes} "
                f"node(s), only {free} allocatable, and the pool is at "
                f"its ceiling ({self.pool.max_nodes}) with nothing "
                "running — quarantined nodes?"
            )

    def _arm_timers(self, expiry: Optional[float]) -> None:
        """Wake the loop at the next window ``expiry`` and the next idle
        reclaim, once each."""
        for due, armed, kind in (
            (expiry, self._flush_timers, "flush"),
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
        """Adopt a replayed :class:`~repro.service.journal.ReplayState`
        as this freshly-constructed service's state, reconcile whatever
        the crash interrupted, and re-arm the timers the WAL implies.
        Follow with :meth:`resume`.

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
        if self._now != 0.0 or self.state.served or self.state.jobs:
            raise ServiceError(
                "restore() needs a freshly constructed service"
            )
        t_rec = float(state.t) + float(resume_delay_s)
        self._now = t_rec
        self.state = state
        if self.journal is not None:
            self.journal.seed(state)
        # the pool reads the state's book from now on; the data plane's
        # health tracker is rebuilt from the state's journal of it
        if state.pool is not None:
            self.pool.restore(state.pool)
        self.health.restore(state.health)
        self._bump("wal_recoveries")
        self._bump("recovery_seconds", resume_delay_s)
        backoffs = list(state.pending_release)
        drop_jobs = sorted(state.inflight)
        # the reconciliation an in-run crash runs, at the WAL's times:
        # members requeue at the recovery instant, the regrow is prompt
        if mode == "resume":
            _, directives = self._reconcile_resume(t_rec)
        else:
            _, directives = self._reconcile_cold(0.0)
        self._log(
            "recover",
            {
                "mode": mode,
                "drop_jobs": drop_jobs,
                **directives,
                "resil": self._take_tally(),
            },
        )
        # retry backoffs keep their release times (cold dropped them all)
        for entry in backoffs if mode == "resume" else ():
            self._push(
                max(float(entry["release_t"]), t_rec),  # type: ignore[arg-type]
                "release",
                SimRequest.from_dict(entry["request"]),
            )
        # pending provisioning completions become wake-ups again
        for rt in self.pool.ready_times():
            self._push(max(rt, t_rec), "ready")
        # domain restores that had not fired yet
        for entry in state.pending_restores:
            self._push(
                max(float(entry["t"]), t_rec),
                "chaos",
                {"restore": sorted(int(n) for n in entry["nodes"])},
            )
        self._arm_chaos(t_rec)
        if state.down_until > t_rec:
            self._push(state.down_until, "ready")
        self._recovered = (t_rec, set(state.arrived_ids))

    def resume(self, horizon_s: float) -> ServiceReport:
        """Finish a restored run: regenerate the traffic horizon, skip
        arrivals the journal already saw, and drive the loop to empty.
        Only valid after :meth:`restore`."""
        if self._recovered is None:
            raise ServiceError("resume() requires restore() first")
        self._open(horizon_s, *self._recovered)
        if self._now >= self.state.down_until:
            # the crash may have landed between a flush and its
            # dispatch: the restored ready batches have no pending
            # event to place them, so schedule once at recovery time
            self._schedule()
        self._loop()
        return self._finish(horizon_s)
