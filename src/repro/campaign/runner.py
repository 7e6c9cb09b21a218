"""The campaign service loop: drain, batch, pack, dispatch, requeue.

:class:`CampaignRunner` turns a :class:`~repro.campaign.request.RequestQueue`
into completed simulations:

1. drain the queue (priority order) and group the pending set into
   candidate ensembles with the
   :class:`~repro.campaign.batcher.SignatureBatcher`;
2. pack candidates into waves of node-disjoint jobs with the
   :class:`~repro.campaign.packer.CampaignPacker`;
3. dispatch each job on its own virtual world through
   :class:`~repro.resilience.runner.ResilientXgyroRunner` (an empty
   fault plan makes that identical to a bare
   :class:`~repro.xgyro.driver.XgyroEnsemble`), probing the
   :class:`~repro.campaign.cache.CmatCache` first — a hit runs the job
   with ``charge_cmat_build=False``;
4. members lost to injected faults are requeued (same id, same arrival
   time, attempt+1) under the :class:`~repro.resilience.health.RetryPolicy`
   — held out of the queue for an exponentially backed-off (jittered)
   interval of campaign time, and *dead-lettered* onto the report's
   ``abandoned`` list once the attempt cap is exhausted, so a member
   that faults every wave can no longer loop forever.

Jobs of one wave occupy disjoint node sets, so running each in its own
world of ``machine.submachine(job.nodes)`` is exact: disjoint node
sets never interact in the cost model.  The campaign clock advances by
each wave's makespan (the slowest job); waves and rounds serialise.

Fault plans are keyed by *job index* — the integer in the packer's
``job007``-style id — so a plan targets one specific dispatch; the
retry job gets a fresh id and (normally) no plan, which is what makes
requeue-and-finish terminate.  ``node_faults`` instead keys plans by
*physical node id*: every dispatch that lands on that node inherits
the plan (targets remapped into the job's local rank/node space) — a
flaky node, not a flaky job.  Each dispatch's fault fallout (crashes,
SDC repairs, migrations) is charged to the physical nodes involved on
the :class:`~repro.resilience.health.NodeHealthTracker`; once a node
trips the circuit breaker the packer stops placing work on it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import CampaignError, RecoveryFailed
from repro.collision.cmat import cmat_total_bytes
from repro.machine.model import MachineModel
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.health import NodeHealthTracker, RetryPolicy
from repro.resilience.runner import ResilientXgyroRunner
from repro.vmpi.world import VirtualWorld
from repro.campaign.batcher import SignatureBatcher
from repro.campaign.cache import CmatCache
from repro.campaign.packer import CampaignPacker, PackedJob
from repro.campaign.report import (
    AbandonedRecord,
    CampaignReport,
    JobRecord,
    RequestRecord,
    WaveRecord,
    retry_or_abandon,
)
from repro.campaign.request import RequestQueue


class CampaignRunner:
    """Serve a request queue as signature-batched XGYRO jobs.

    Parameters
    ----------
    machine:
        The machine the campaign owns.
    batcher / packer / cache:
        Pluggable stages; defaults are a cap-less
        :class:`SignatureBatcher`, a maximal-sharing
        :class:`CampaignPacker`, and an unbounded :class:`CmatCache`.
        Pass ``cache=None`` explicitly via ``use_cache=False`` to run
        every job cold.
    fault_plans:
        Map from job index (the integer in the packer's job id) to the
        :class:`FaultPlan` injected into that dispatch.
    checkpoint_interval:
        Forwarded to every job's :class:`ResilientXgyroRunner`.
    enforce_memory:
        Make each job's world ledgers raise on oversubscription —
        normally redundant (the packer's probes already guarantee fit)
        but useful as a cross-check in tests.
    node_faults:
        Map from *physical node id* to a :class:`FaultPlan` injected
        into every dispatch placed on that node (targets remapped to
        the job's local rank/node space) — models chronically bad
        hardware rather than a one-off fault.
    retry:
        Requeue policy for fault-lost requests.  The default
        :class:`RetryPolicy` caps total dispatches at 3 with
        exponential backoff; ``retry=None`` restores the legacy
        unbounded requeue (bounded only by ``max_rounds``).
    health:
        Per-node incident tracker; defaults to a fresh
        :class:`NodeHealthTracker`.  It is shared with the packer (when
        the packer has none of its own) so quarantine decisions steer
        placement.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` bundle.  Every dispatch
        installs it on the job's world with the tracer's
        ``time_offset`` pointed at the job's campaign-clock start, so
        its job > step > phase > collective spans land at
        campaign-absolute times under the caller's open span (the
        online service's root).
    """

    def __init__(
        self,
        machine: MachineModel,
        *,
        batcher: Optional[SignatureBatcher] = None,
        packer: Optional[CampaignPacker] = None,
        cache: Optional[CmatCache] = None,
        use_cache: bool = True,
        fault_plans: Optional[Mapping[int, FaultPlan]] = None,
        checkpoint_interval: int = 1,
        enforce_memory: bool = False,
        node_faults: Optional[Mapping[int, FaultPlan]] = None,
        retry: Optional[RetryPolicy] = RetryPolicy(),
        health: Optional[NodeHealthTracker] = None,
        telemetry=None,
        checker_factory=None,
    ) -> None:
        self.machine = machine
        self.batcher = batcher or SignatureBatcher()
        self.health = health if health is not None else NodeHealthTracker()
        if packer is None:
            self.packer = CampaignPacker(machine, health=self.health)
        else:
            self.packer = packer
            if getattr(packer, "health", None) is None:
                packer.health = self.health
            else:
                self.health = packer.health
        if use_cache:
            # explicit None test: an empty CmatCache is falsy but must
            # be kept — callers share it across runs to model warmth
            self.cache = cache if cache is not None else CmatCache()
        else:
            self.cache = None
        self.fault_plans: Dict[int, FaultPlan] = dict(fault_plans or {})
        self.node_faults: Dict[int, FaultPlan] = dict(node_faults or {})
        self.retry = retry
        self.checkpoint_interval = checkpoint_interval
        self.enforce_memory = enforce_memory
        self.telemetry = telemetry
        #: zero-arg callable building a fresh protocol checker per
        #: dispatch (checkers are stateful; sharing one across jobs
        #: would leak epochs between worlds)
        self.checker_factory = checker_factory
        self._hold_until: Dict[str, float] = {}
        self._imposed_wait_s = 0.0

    # ------------------------------------------------------------------
    def run(
        self,
        queue: RequestQueue,
        *,
        steps: Optional[int] = None,
        max_rounds: int = 100,
    ) -> CampaignReport:
        """Serve ``queue`` to empty and return the campaign report.

        ``steps`` overrides every job's step count (benchmarks use a
        short count); by default each job runs one reporting interval
        of its members (``steps_per_report``, common within a job by
        construction).  ``max_rounds`` bounds the requeue loop against
        a pathological fault-plan mapping that keeps killing retries.
        """
        if steps is not None and steps < 1:
            raise CampaignError(f"steps must be >= 1, got {steps}")
        clock = 0.0
        jobs: List[JobRecord] = []
        done: List[RequestRecord] = []
        abandoned: List[AbandonedRecord] = []
        wave_records: List[WaveRecord] = []
        peak_cmat = 0
        rounds = 0
        self._imposed_wait_s = 0.0
        while queue:
            if rounds >= max_rounds:
                raise CampaignError(
                    f"campaign did not drain in {max_rounds} rounds; "
                    f"{len(queue)} request(s) still pending "
                    "(fault plans keep killing retries?)"
                )
            pending = queue.drain()
            held = [
                r
                for r in pending
                if self._hold_until.get(r.request_id, 0.0) > clock
            ]
            ready = [r for r in pending if r not in held]
            for r in held:
                queue.submit(r)
            if not ready:
                # every pending request is backing off — idle the
                # campaign clock forward to the earliest release
                clock = min(self._hold_until[r.request_id] for r in held)
                rounds += 1
                continue
            batches = self.batcher.batch(ready)
            waves = self.packer.pack(batches, job_id_offset=len(jobs))
            for wave in waves:
                wave_makespan = 0.0
                wave_nodes: set = set()
                wave_idx = wave[0].wave if wave else 0
                for job in wave:
                    record, completed, lost = self._dispatch(
                        job, rounds, clock, steps
                    )
                    jobs.append(record)
                    done.extend(completed)
                    for req in lost:
                        self._requeue_or_abandon(
                            req, record, queue, clock, abandoned
                        )
                    wave_makespan = max(wave_makespan, record.elapsed_s)
                    wave_nodes.update(job.nodes)
                    peak_cmat = max(peak_cmat, job.shape.per_rank_cmat_bytes)
                wave_records.append(
                    WaveRecord(
                        round=rounds,
                        wave=wave_idx,
                        start_s=clock,
                        end_s=clock + wave_makespan,
                        n_jobs=len(wave),
                        nodes_busy=len(wave_nodes),
                    )
                )
                clock += wave_makespan
            rounds += 1
        return CampaignReport(
            machine_name=self.machine.name,
            machine_n_nodes=self.machine.n_nodes,
            makespan_s=clock,
            jobs=jobs,
            requests=done,
            cache=self.cache.stats() if self.cache is not None else {},
            peak_cmat_bytes_per_rank=peak_cmat,
            abandoned=abandoned,
            quarantined_nodes=self.health.quarantined,
            health=self.health.to_dict(),
            waves=wave_records,
            imposed_wait_s=self._imposed_wait_s,
            quarantine_windows=self._quarantine_windows(clock),
        )

    def _quarantine_windows(self, end_s: float) -> List[Dict[str, float]]:
        """One ``{"node", "start_s", "end_s"}`` window per quarantined
        node, opening at the incident that tripped the breaker (0.0 for
        a forced quarantine) and closing at campaign end — the model
        has no operator reset mid-campaign."""
        windows: List[Dict[str, float]] = []
        thr = self.health.quarantine_threshold
        for node in self.health.quarantined:
            incidents = self.health.incidents(node)
            if thr is not None and len(incidents) >= thr:
                start = incidents[thr - 1].at_s
            else:
                start = 0.0
            windows.append(
                {
                    "node": float(node),
                    "start_s": float(start),
                    "end_s": float(end_s),
                }
            )
        return windows

    # ------------------------------------------------------------------
    def dispatch(
        self,
        job: PackedJob,
        *,
        start_s: float = 0.0,
        steps: Optional[int] = None,
    ) -> Tuple[JobRecord, List[RequestRecord], List]:
        """Run one packed job at campaign time ``start_s``.

        The streaming entry point: a caller that places jobs itself
        (the online service's moving window over an elastic pool) runs
        each dispatch here instead of draining a queue through
        :meth:`run`.  Cache probes, health charging, fault plans, and
        telemetry behave exactly as under :meth:`run`; the caller owns
        the clock and the requeue policy for the returned lost
        requests.
        """
        if steps is not None and steps < 1:
            raise CampaignError(f"steps must be >= 1, got {steps}")
        return self._dispatch(job, 0, start_s, steps)

    # ------------------------------------------------------------------
    def _requeue_or_abandon(
        self,
        req,
        record: JobRecord,
        queue: RequestQueue,
        clock: float,
        abandoned: List[AbandonedRecord],
    ) -> None:
        """Requeue a fault-lost request under the retry policy, or
        dead-letter it once the attempt cap is exhausted."""
        outcome = retry_or_abandon(self.retry, req, record.job_id)
        if isinstance(outcome, AbandonedRecord):
            abandoned.append(outcome)
            return
        self._hold_until[req.request_id] = clock + record.elapsed_s + outcome
        queue.submit(req.requeued())

    # ------------------------------------------------------------------
    def _job_plan(self, job: PackedJob) -> Optional[FaultPlan]:
        """The fault plan for one dispatch: the per-job-index plan (if
        any) merged with every ``node_faults`` plan whose physical node
        this job landed on, targets remapped into the job's local
        rank/node space."""
        base = self.fault_plans.get(int(job.job_id[3:]))
        if not self.node_faults:
            return base
        specs = list(base.specs) if base is not None else []
        timeout = base.detection_timeout_s if base is not None else 30.0
        seed = base.seed if base is not None else 0
        rpn = self.machine.ranks_per_node
        extra = False
        for local_node, phys_node in enumerate(job.nodes):
            node_plan = self.node_faults.get(phys_node)
            if node_plan is None:
                continue
            extra = True
            timeout = max(timeout, node_plan.detection_timeout_s)
            for s in node_plan.specs:
                if s.kind == "node_loss" or (
                    s.kind in ("slowdown", "link_slowdown") and s.rank < 0
                ):
                    # node-scoped spec: retarget at the local node index
                    specs.append(
                        FaultSpec(
                            kind=s.kind,
                            at_step=s.at_step,
                            node=local_node,
                            factor=s.factor,
                            phase=s.phase,
                        )
                    )
                else:
                    # rank-scoped spec: ``rank`` is the offset within
                    # the flaky node (clamped into [0, rpn))
                    off = s.rank if 0 <= s.rank < rpn else 0
                    specs.append(
                        FaultSpec(
                            kind=s.kind,
                            at_step=s.at_step,
                            rank=local_node * rpn + off,
                            factor=s.factor,
                            phase=s.phase,
                        )
                    )
        if not extra:
            return base
        return FaultPlan(
            specs=tuple(specs), detection_timeout_s=timeout, seed=seed
        )

    def _record_health(
        self,
        job: PackedJob,
        runner: ResilientXgyroRunner,
        start_s: float,
        abort: Optional[RecoveryFailed],
    ) -> None:
        """Charge one dispatch's fault fallout, as its recovery ledger
        books it, to the physical nodes involved, mapping the job's
        local node indices through ``job.nodes``.  A crash costs one
        incident per node of the ranks it found dead; an abort, one per
        node of the dead ranks no recovery booked."""
        node_of = runner.world.placement.node_of
        ledger = runner.ledger

        def crash(ranks, detail: str) -> None:
            for local_node in sorted({node_of(int(r)) for r in ranks}):
                self._record_incident(
                    job, local_node, "crash", start_s, f"{job.job_id}: {detail}"
                )

        for ev in ledger.events:
            crash(ev.failed_ranks, f"rank crash at step {ev.step}")
        for sdc in ledger.sdc_events:
            for rank in sdc.ranks:
                self._record_incident(
                    job,
                    node_of(int(rank)),
                    "sdc",
                    start_s,
                    f"{job.job_id}: shard checksum mismatch at step {sdc.step}",
                )
        for mig in ledger.migrations:
            self._record_incident(
                job,
                mig.node,
                "straggler",
                start_s,
                f"{job.job_id}: member {mig.member} migrated at step {mig.step}",
            )
        if abort is not None:
            booked = {r for ev in ledger.events for r in ev.failed_ranks}
            crash(runner.injector.dead_ranks - booked, f"aborted ({abort.reason})")

    def _record_incident(
        self, job: PackedJob, local_node: int, kind: str, at_s: float, detail: str
    ) -> None:
        """Record one incident against the *physical* node backing the
        job-local node index."""
        self.health.record(
            job.nodes[local_node], kind, at_s=at_s, detail=detail
        )

    # ------------------------------------------------------------------
    def _finish_job_telemetry(self, job: PackedJob, world: VirtualWorld) -> None:
        """Book one finished dispatch: imposed-wait total, job-span
        close, memory high-water marker + gauge."""
        job_imposed = float(world.imposed_wait_s.sum())
        self._imposed_wait_s += job_imposed
        tele = self.telemetry
        if tele is None:
            return
        t_end = world.elapsed()
        peak = max((l.peak_bytes for l in world.ledgers), default=0)
        tele.tracer.record(
            f"{job.job_id}.mem",
            "marker",
            t_end,
            0.0,
            mem_high_water_bytes=int(peak),
        )
        tele.tracer.end(t_end)
        tele.tracer.time_offset = 0.0
        tele.metrics.gauge("memory_high_water_bytes", job=job.job_id).max(peak)
        tele.metrics.counter("campaign_imposed_wait_seconds_total").inc(
            job_imposed
        )
        # the same wait attributed to fault domains: rank -> job-local
        # node -> physical node -> domain, so the monitoring plane can
        # see one rack imposing anomalous collective wait
        per_domain: Dict[int, float] = {}
        for rank in range(int(world.imposed_wait_s.size)):
            wait = float(world.imposed_wait_s[rank])
            if wait <= 0.0:
                continue
            node = job.nodes[world.placement.node_of(rank)]
            domains = self.machine.fault_domains
            dom = 0 if domains is None else domains.domain_of(node)
            per_domain[dom] = per_domain.get(dom, 0.0) + wait
        for dom, wait in sorted(per_domain.items()):
            tele.metrics.counter(
                "campaign_domain_imposed_wait_seconds_total", domain=dom
            ).inc(wait)

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        job: PackedJob,
        round_idx: int,
        start_s: float,
        steps_override: Optional[int],
    ) -> Tuple[JobRecord, List[RequestRecord], List]:
        """Run one packed job; returns its record, the completion
        records of surviving members, and the lost requests to requeue."""
        steps = (
            steps_override
            if steps_override is not None
            else job.requests[0].input.steps_per_report
        )
        signature = job.requests[0].input.cmat_signature()
        hit = (
            self.cache.lookup(signature) if self.cache is not None else None
        )

        # the job world sees exactly the physical nodes the packer
        # assigned — on a heterogeneous machine their speed/bandwidth
        # multipliers ride along
        world = VirtualWorld(
            self.machine.submachine(job.nodes),
            enforce_memory=self.enforce_memory,
        )
        nc_counts = None
        overlap = "off"
        if job.tuning is not None:
            # pin the autotuner's collective algorithms, nc split, and
            # step schedule
            from repro.plan.predict import algorithms_of

            tuned_ar, tuned_a2a = algorithms_of(job.tuning)
            world.cost_model.default_allreduce = tuned_ar
            world.cost_model.default_alltoall = tuned_a2a
            nc_counts = job.tuning.nc_counts
            overlap = job.tuning.overlap
        if self.checker_factory is not None:
            world.install_checker(self.checker_factory())
        tele = self.telemetry
        if tele is not None:
            # installed before the runner builds the ensemble so the
            # cmat assembly charges land inside the span tree too
            tele.install(world)
            # the job's world clock starts at zero: shift its spans to
            # the wave's campaign-clock start
            tele.tracer.time_offset = start_s
            tele.tracer.begin(
                job.job_id,
                "job",
                0.0,
                k=job.k,
                n_nodes=job.n_nodes,
                signature=job.signature_key,
                cache_hit=hit is not None,
            )
            tele.metrics.counter(
                "campaign_cache_hits_total"
                if hit is not None
                else "campaign_cache_misses_total"
            ).inc()
        plan = self._job_plan(job)
        runner = ResilientXgyroRunner(
            world,
            [r.input for r in job.requests],
            plan=plan,
            checkpoint_interval=self.checkpoint_interval,
            charge_cmat_build=hit is None,
            nc_counts=nc_counts,
            overlap=overlap,
        )

        def job_record(steps, elapsed_s, cmat_build_s, n_recoveries, lost) -> JobRecord:
            return JobRecord(
                job_id=job.job_id,
                round=round_idx,
                wave=job.wave,
                signature_key=job.signature_key,
                k=job.k,
                n_nodes=job.n_nodes,
                nodes=job.nodes,
                steps=steps,
                start_s=start_s,
                elapsed_s=elapsed_s,
                cache_hit=hit is not None,
                cmat_build_s=cmat_build_s,
                n_recoveries=n_recoveries,
                lost_request_ids=tuple(r.request_id for r in lost),
            )

        try:
            result = runner.run_steps(steps)
        except RecoveryFailed as abort:
            # whole-job abort (e.g. shrunk below the policy minimum):
            # every member is lost; requeue them all under the retry
            # policy rather than crashing the campaign
            self._record_health(job, runner, start_s, abort)
            self._finish_job_telemetry(job, world)
            record = job_record(
                runner.ensemble.step_count, world.elapsed(), 0.0, len(runner.ledger), job.requests
            )
            return record, [], list(job.requests)
        self._record_health(job, runner, start_s, None)
        self._finish_job_telemetry(job, world)

        build_s = 0.0
        if hit is None:
            build_s = world.category_time("cmat_build", reduce="max")
            if self.cache is not None:
                dims = job.requests[0].input.grid_dims()
                self.cache.insert(
                    signature, cmat_total_bytes(dims), build_s
                )

        lost_labels = set(result.lost_member_labels)
        completed: List[RequestRecord] = []
        lost_requests = []
        for m, (req, label) in enumerate(
            zip(job.requests, runner.member_labels_initial)
        ):
            if label in lost_labels:
                lost_requests.append(req)
                continue
            completed.append(
                RequestRecord(
                    request_id=req.request_id,
                    job_id=job.job_id,
                    priority=req.priority,
                    arrival_s=req.arrival_s,
                    start_s=start_s,
                    finish_s=start_s + result.elapsed_s,
                    steps=steps,
                    attempts=req.attempt + 1,
                )
            )
        record = job_record(
            result.steps, result.elapsed_s, build_s, len(result.ledger), lost_requests
        )
        return record, completed, lost_requests
