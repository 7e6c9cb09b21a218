"""The resilient ensemble driver loop.

:class:`ResilientXgyroRunner` wraps an
:class:`~repro.xgyro.driver.XgyroEnsemble` with the full fault
lifecycle: it installs the :class:`~repro.resilience.injector.FaultInjector`
on the world, checkpoints on a fixed cadence, catches
:class:`~repro.errors.RankFailure` at step boundaries, and hands each
failure to :func:`~repro.resilience.recovery.shrink_and_recover`.  After
a recovery the main loop simply continues: the ensemble's step counter
was rolled back to the checkpoint, so the rolled-back steps replay with
the surviving members — which is how the lost work the ledger reports
actually gets re-paid in simulated time.

Gray faults ride the same loop.  ``bitflip`` specs corrupt a shared-
cmat shard in place at their armed step; the SDC guard re-hashes every
shard at each checkpoint boundary *and* at run end (so corruption can
never reach a reported result), repairs only the bad shard by
recomputing it from the propagator, rolls back to the last clean
checkpoint, and replays — the fired-once semantics of
:meth:`FaultInjector.take_due_bitflips` guarantee the replay is clean,
so the final physics is bit-identical to a fault-free run.
``slowdown`` specs stretch their target's compute charges; the
straggler detector reads the per-boundary *imposed wait* each rank
inflicted on its peers and, on a flag, speculatively migrates the
afflicted member to healthy hardware at the checkpoint — state
transfer priced over the inter-node link, booked as a
:class:`~repro.resilience.ledger.MigrationEvent`.

An empty :class:`~repro.resilience.faults.FaultPlan` makes the whole
apparatus transparent: the injector returns a 1.0 multiplier, the
checkpoint store charges nothing, the SDC guard and straggler
detector stay disarmed, and the run is bit-identical — clocks, traces
and physics — to a bare ``XgyroEnsemble`` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import RankFailure, ResilienceError
from repro.cgyro.params import CgyroInput
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import FaultPlan
from repro.resilience.health import StragglerDetector
from repro.resilience.injector import FaultInjector
from repro.resilience.ledger import MigrationEvent, RecoveryLedger, SdcEvent
from repro.resilience.recovery import RecoveryPolicy, shrink_and_recover
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble

#: Categories the gray-failure machinery charges under.
SDC_SCAN_CATEGORY = "sdc_scan"
SDC_REPAIR_CATEGORY = "sdc_repair"
MIGRATE_CATEGORY = "straggler_migrate"


@dataclass(frozen=True)
class RunResult:
    """Outcome of a resilient run (simulated seconds).

    Every crash, SDC repair and migration, with its cost, is on
    ``ledger`` — the runner's own, which a further ``run_steps`` keeps
    booking on; the result adds only what the ledger does not hold.
    """

    steps: int
    elapsed_s: float
    member_labels_initial: Tuple[str, ...]
    member_labels: Tuple[str, ...]
    ledger: RecoveryLedger

    @property
    def lost_member_labels(self) -> Tuple[str, ...]:
        """Labels of members the run started with but shrank away —
        what a job-level scheduler must requeue."""
        final = set(self.member_labels)
        return tuple(l for l in self.member_labels_initial if l not in final)


class ResilientXgyroRunner:
    """Run an XGYRO ensemble under a fault plan, recovering as needed.

    Parameters
    ----------
    world:
        Fresh virtual world for the job (the injector is installed on
        it; reuse a world only for fault-free baselines).  A
        :class:`~repro.check.checker.CollectiveChecker` or
        :class:`~repro.obs.Telemetry` bundle the caller installed on
        it beforehand covers every collective of the run — cmat
        assembly and shrink-and-recover rebuild included — and puts
        checkpoints, recoveries and migrations in the same span tree
        as the collectives they interleave with.
    inputs:
        Member inputs, as for :class:`XgyroEnsemble`.
    plan:
        Fault schedule; ``None`` or an empty plan runs fault-free and
        bit-identical to a bare ensemble.
    checkpoint_interval:
        Ensemble steps between checkpoints (>= 1).
    checkpoint_dir:
        When given, checkpoints go to disk as ``.npz`` restart files;
        default is in-memory.
    policy:
        Degrade-vs-abort thresholds.
    charge_cmat_build:
        As for :class:`XgyroEnsemble`: ``False`` models a warm start
        where the machine already holds this signature's tensor.
    guard_sdc:
        Run the shard-checksum scan at every checkpoint boundary and
        at run end.  ``None`` (default) arms the guard exactly when
        the plan contains ``bitflip`` specs, keeping fault-free runs
        bit-identical; pass ``True`` to price the scan on a healthy
        run (the overhead benchmark does) or ``False`` to run naked.
    migrate_stragglers:
        Respond to a flagged straggler by migrating the afflicted
        member at the boundary (default).  ``False`` detects and logs
        only — the do-nothing baseline the benchmark prices against.
        (The :class:`StragglerDetector` itself is consulted at
        checkpoint boundaries exactly when the plan contains
        ``slowdown`` specs.)
    overlap:
        Forwarded to :class:`XgyroEnsemble` — one of
        :data:`~repro.cgyro.solver.OVERLAP_MODES`.  A rank that dies
        while a nonblocking collective is in flight is detected at the
        matching ``wait()``, which raises the same
        :class:`~repro.errors.RankFailure` a blocking collective would
        — never a stuck wait — so recovery composes with overlap.
    """

    def __init__(
        self,
        world: VirtualWorld,
        inputs: Sequence[CgyroInput],
        *,
        plan: Optional[FaultPlan] = None,
        checkpoint_interval: int = 1,
        checkpoint_dir=None,
        policy: Optional[RecoveryPolicy] = None,
        charge_cmat_build: bool = True,
        guard_sdc: "bool | None" = None,
        migrate_stragglers: bool = True,
        nc_counts: "Sequence[int] | None" = None,
        overlap: str = "off",
    ) -> None:
        if checkpoint_interval < 1:
            raise ResilienceError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        self.world = world
        self.plan = plan if plan is not None else FaultPlan.none()
        self.checkpoint_interval = int(checkpoint_interval)
        self.policy = policy or RecoveryPolicy()
        self.injector = FaultInjector(world, self.plan)
        world.install_fault_injector(self.injector)
        self.ensemble = XgyroEnsemble(
            world,
            inputs,
            charge_cmat_build=charge_cmat_build,
            nc_counts=nc_counts,
            overlap=overlap,
        )
        self.member_labels_initial = tuple(
            m.label for m in self.ensemble.members
        )
        self.store = CheckpointStore(checkpoint_dir)
        with world.span(
            "checkpoint.s0", "checkpoint", ranks=self.ensemble.ranks
        ):
            self.store.save(self.ensemble)  # step-0 baseline to roll back to
        if world.metrics is not None:
            world.metrics.counter("resilience_checkpoints_total").inc()
        self.ledger = RecoveryLedger()
        self.guard_sdc = (
            self.injector.has_bitflips if guard_sdc is None else bool(guard_sdc)
        )
        self.straggler_detector: "StragglerDetector | None" = (
            StragglerDetector() if self.injector.has_slowdowns else None
        )
        self.migrate_stragglers = migrate_stragglers
        self._imposed_snapshot = world.imposed_wait_s.copy()
        self._elapsed_at_boundary = world.elapsed(self.ensemble.ranks)
        self._migrated_ranks: set = set()

    # ------------------------------------------------------------------
    def run_steps(self, n_steps: int) -> RunResult:
        """Advance to ensemble step ``n_steps``, recovering on failures.

        Raises :class:`~repro.errors.RecoveryFailed` when the policy
        decides a failure is not worth surviving.
        """
        if n_steps < 0:
            raise ResilienceError(f"n_steps must be >= 0, got {n_steps}")
        while self.ensemble.step_count < n_steps:
            self.injector.begin_step(self.ensemble.step_count)
            for spec in self.injector.take_due_bitflips():
                # a flip on a rank that no longer owns a shard (dead,
                # or dropped with its member) has nothing to corrupt
                if self.ensemble.scheme.shard_nbytes(spec.rank) > 0:
                    self.ensemble.scheme.corrupt_shard(
                        spec.rank, seed=self.plan.seed
                    )
            try:
                self.ensemble.step()
            except RankFailure as failure:
                checker = self.world.checker
                if checker is not None and hasattr(checker, "abandon_inflight"):
                    # requests stranded by the failure can never complete;
                    # the replay must start from clean protocol state
                    checker.abandon_inflight()
                with self.world.span(
                    f"recovery.s{self.ensemble.step_count}",
                    "recovery",
                    ranks=self.ensemble.ranks,
                    step=self.ensemble.step_count,
                ):
                    shrink_and_recover(
                        self.ensemble,
                        failure,
                        self.store,
                        self.ledger,
                        policy=self.policy,
                    )
                if self.world.metrics is not None:
                    self.world.metrics.counter(
                        "resilience_recoveries_total"
                    ).inc()
                continue
            at_checkpoint = (
                self.ensemble.step_count % self.checkpoint_interval == 0
                and self.ensemble.step_count < n_steps
            )
            at_end = self.ensemble.step_count >= n_steps
            if self.guard_sdc and (at_checkpoint or at_end):
                if self._sdc_scan_and_heal():
                    continue  # rolled back; replay from the clean state
            if at_checkpoint:
                if self.straggler_detector is not None:
                    self._check_stragglers()
                with self.world.span(
                    f"checkpoint.s{self.ensemble.step_count}",
                    "checkpoint",
                    ranks=self.ensemble.ranks,
                ):
                    self.store.save(self.ensemble)
                if self.world.metrics is not None:
                    self.world.metrics.counter(
                        "resilience_checkpoints_total"
                    ).inc()
        return self.result()

    # ------------------------------------------------------------------
    # gray-failure guards (checkpoint-boundary hooks)
    # ------------------------------------------------------------------
    def _sdc_scan_and_heal(self) -> bool:
        """Checksum-scan every shard; heal and roll back on corruption.

        Returns True when corruption was found — the caller must replay
        from the restored checkpoint.  Checkpoints are only ever saved
        after a clean scan, so the rollback target is guaranteed
        uncorrupted.
        """
        scheme = self.ensemble.scheme
        ranks = self.ensemble.ranks
        elapsed_pre_scan = self.world.elapsed(ranks)
        # the sweep is a straight memory read of each shard; price it
        # at link bandwidth (a conservative stand-in for stream rate)
        bw = self.world.machine.intra.bandwidth_Bps
        scan_seconds = {r: scheme.shard_nbytes(r) / bw for r in ranks}
        self.world.charge_compute(
            ranks, seconds=scan_seconds, category=SDC_SCAN_CATEGORY
        )
        bad = scheme.verify_shards(ranks)
        if self.world.metrics is not None:
            self.world.metrics.counter("resilience_sdc_scans_total").inc()
            if bad:
                self.world.metrics.counter(
                    "resilience_sdc_detections_total"
                ).inc(len(bad))
        if not bad:
            return False
        repair_before = self.world.category_time(
            SDC_REPAIR_CATEGORY, ranks, reduce="max"
        )
        rebuilt = 0
        for r in bad:
            rebuilt += scheme.repair_shard(r, category=SDC_REPAIR_CATEGORY)
        repair_s = (
            self.world.category_time(SDC_REPAIR_CATEGORY, ranks, reduce="max")
            - repair_before
        )
        detected_step = self.ensemble.step_count
        rolled_back = detected_step - self.store.step
        for m in self.ensemble.members:
            self.store.restore_member(m)
        self.ensemble.step_count = self.store.step
        self.ledger.sdc_events.append(
            SdcEvent(
                step=detected_step,
                ranks=tuple(bad),
                rebuilt_blocks=rebuilt,
                scan_s=max(scan_seconds.values()) if scan_seconds else 0.0,
                repair_s=repair_s,
                rolled_back_steps=rolled_back,
                lost_work_s=max(
                    0.0, elapsed_pre_scan - self.store.elapsed_at_save
                ),
            )
        )
        return True

    def _check_stragglers(self) -> None:
        """Flag stragglers on this interval's imposed waits; migrate."""
        world = self.world
        delta = world.imposed_wait_s - self._imposed_snapshot
        elapsed = world.elapsed(self.ensemble.ranks)
        flagged = self.straggler_detector.flag(
            delta,
            self.ensemble.ranks,
            interval_s=elapsed - self._elapsed_at_boundary,
        )
        self._imposed_snapshot = world.imposed_wait_s.copy()
        self._elapsed_at_boundary = elapsed
        if not self.migrate_stragglers:
            return
        for r in flagged:
            if r in self._migrated_ranks:
                continue
            hit = next(
                (
                    (mi, m)
                    for mi, m in enumerate(self.ensemble.members)
                    if r in m.ranks
                ),
                None,
            )
            if hit is None:
                continue
            mi, member = hit
            # ship the member's checkpoint state to its new home and
            # exempt all its ranks from the (now vacated) slow node
            state_bytes = int(member.gather_h().nbytes)
            migrate_s = state_bytes / world.machine.inter.bandwidth_Bps
            with world.span(
                f"migrate.m{mi}",
                "migration",
                ranks=member.ranks,
                member=mi,
                straggler_rank=int(r),
                state_bytes=state_bytes,
            ):
                world.sync_charge(
                    member.ranks, migrate_s, category=MIGRATE_CATEGORY
                )
            if world.metrics is not None:
                world.metrics.counter("resilience_migrations_total").inc()
                world.metrics.counter(
                    "resilience_migration_seconds_total"
                ).inc(migrate_s)
            self.injector.mark_migrated(member.ranks)
            self._migrated_ranks.update(int(x) for x in member.ranks)
            self.ledger.migrations.append(
                MigrationEvent(
                    step=self.ensemble.step_count,
                    rank=int(r),
                    node=world.placement.node_of(int(r)),
                    member=mi,
                    state_bytes=state_bytes,
                    migrate_s=migrate_s,
                    imposed_wait_s=float(world.imposed_wait_s[int(r)]),
                )
            )

    def result(self) -> RunResult:
        """Summarise the run so far."""
        return RunResult(
            steps=self.ensemble.step_count,
            elapsed_s=self.world.elapsed(self.ensemble.ranks),
            member_labels_initial=self.member_labels_initial,
            member_labels=tuple(m.label for m in self.ensemble.members),
            ledger=self.ledger,
        )
