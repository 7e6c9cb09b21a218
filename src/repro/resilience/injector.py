"""The fault injector: where a plan meets the virtual machine.

Installed on a :class:`~repro.vmpi.world.VirtualWorld` via
``world.install_fault_injector``, the injector is consulted at every
collective boundary — the only observation points a lockstep SPMD job
has, mirroring how a real MPI job experiences a dead peer (a collective
that never completes); a block of collectives charged in one pass
looks ahead once (:meth:`FaultInjector.collective_outlook`) and raises
at the collective a loop would have raised at.  On detecting a dead
participant it charges the plan's detection timeout to the *surviving*
participants' simulated clocks (their wasted wait is real cost; clocks
never roll back) and raises :class:`~repro.errors.RankFailure` for the
driver to recover from.

Determinism: the injector holds no hidden randomness.  Given the same
:class:`~repro.resilience.faults.FaultPlan` and the same run, faults
fire at identical collective boundaries with identical charges, which
is what makes faulted runs bit-for-bit reproducible.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence, Set, Tuple

from repro.errors import FaultPlanError, RankFailure
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.vmpi.world import VirtualWorld

#: Category under which detection timeouts are charged.
DETECT_CATEGORY = "fault_detect"


class FaultInjector:
    """Consults a :class:`FaultPlan` at collective boundaries.

    The driver must call :meth:`begin_step` before each ensemble step
    so ``at_step`` arming is well-defined.  Dead ranks stay dead for
    the injector's lifetime — a recovered ensemble replaying rolled-
    back steps cannot resurrect them — but each is named by one
    :class:`RankFailure` only, the first that finds it dead.
    """

    def __init__(self, world: VirtualWorld, plan: FaultPlan) -> None:
        plan.validate_for(
            n_ranks=world.n_ranks, n_nodes=world.machine.n_nodes
        )
        # the world holds its injector: a proxy back leaves no cycle
        self.world = weakref.proxy(world)
        self.plan = plan
        self.dead_ranks: Set[int] = set()
        self._raised: Set[int] = set()  # dead ranks a failure already named
        self._pending = [
            s for s in plan.specs if s.kind in ("rank_crash", "node_loss")
        ]
        self._slowdowns = [s for s in plan.specs if s.kind == "link_slowdown"]
        self._rank_slowdowns = [s for s in plan.specs if s.kind == "slowdown"]
        self._bitflips = [s for s in plan.specs if s.kind == "bitflip"]
        self._fired_bitflips: Set[int] = set()  # indices into _bitflips
        self._migrated: Set[int] = set()  # ranks moved off slow hardware
        self._step = 0

    # ------------------------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Arm the injector for ensemble step ``step`` (0-based)."""
        if step < 0:
            raise FaultPlanError(f"step must be >= 0, got {step}")
        self._step = step

    def _phase_matches(self, spec: FaultSpec) -> bool:
        return not spec.phase or spec.phase == self.world.current_category

    def _activate_pending(self) -> None:
        """Kill the targets of every armed crash/node spec."""
        if not self._pending:
            return
        still_pending = []
        for spec in self._pending:
            if spec.at_step <= self._step and self._phase_matches(spec):
                if spec.kind == "rank_crash":
                    self.dead_ranks.add(spec.rank)
                else:  # node_loss
                    for r in range(self.world.n_ranks):
                        if self.world.placement.node_of(r) == spec.node:
                            self.dead_ranks.add(r)
            else:
                still_pending.append(spec)
        self._pending = still_pending

    # ------------------------------------------------------------------
    def on_collective(
        self, kind: str, ranks: Sequence[int], comm_label: str
    ) -> float:
        """Hook called by the world before costing a collective.

        Returns the cost multiplier (1.0 when healthy).  When a dead
        rank participates, charges the detection timeout to the live
        participants and raises :class:`RankFailure`.
        """
        self._activate_pending()
        dead_here = self.dead_ranks.intersection(ranks)
        if dead_here:
            live = [r for r in ranks if r not in self.dead_ranks]
            if not live:
                # the whole group died at once: the rest of the job
                # discovers the loss by absence, and pays the timeout
                live = [
                    r for r in range(self.world.n_ranks)
                    if r not in self.dead_ranks
                ]
            timeout = self.plan.detection_timeout_s
            t_start = self.world.sync_charge(
                live, timeout, category=DETECT_CATEGORY
            )
            found = self.dead_ranks - self._raised
            self._raised.update(found)
            raise RankFailure(
                f"collective {kind!r} on {comm_label!r} at step {self._step} "
                f"hit dead ranks {sorted(dead_here)} "
                f"(detected after {timeout:g} simulated s)",
                failed_ranks=tuple(found),
                step=self._step,
                detected_at_s=t_start + timeout,
                detection_timeout_s=timeout,
                comm_label=comm_label,
                kind=kind,
            )
        return self._link_factor()

    def _link_factor(self) -> float:
        """Cost multiplier of the ``link_slowdown`` specs armed for the
        current step and phase — the same for every group."""
        factor = 1.0
        for spec in self._slowdowns:
            if spec.at_step <= self._step and self._phase_matches(spec):
                factor *= spec.factor
        return factor

    def collective_outlook(
        self, groups: Sequence[Sequence[int]]
    ) -> "Tuple[float, Optional[int]]":
        """What :meth:`on_collective` would answer for each of
        ``groups`` right now, without raising: the cost multiplier, and
        the index of the first group holding a dead rank (``None`` when
        all are healthy).  Arms pending specs exactly as
        :meth:`on_collective` does (asked once per chunk, it skips what
        the plan has none of)."""
        if self._pending:
            self._activate_pending()
        dead = self.dead_ranks
        hit = None
        if dead:
            hit = next(
                (j for j, ranks in enumerate(groups) if not dead.isdisjoint(ranks)),
                None,
            )
        return self._link_factor() if self._slowdowns else 1.0, hit

    # ------------------------------------------------------------------
    # gray faults: stragglers and silent data corruption
    # ------------------------------------------------------------------
    def _slowdown_targets_rank(self, spec: FaultSpec, rank: int) -> bool:
        if spec.rank >= 0:
            return spec.rank == rank
        return self.world.placement.node_of(rank) == spec.node

    def compute_multiplier(self, rank: int) -> float:
        """Compute-cost stretch factor for ``rank`` at the current step.

        Consulted by :meth:`VirtualWorld.charge_compute` (per charged
        rank, and only when the plan :attr:`has_slowdowns`): an armed
        ``slowdown`` spec makes its target's compute charges ``factor``×
        longer, so the straggler's clock runs ahead and every collective
        it joins stalls on it — the peers' waits are what the straggler
        detector later reads.
        """
        if rank in self._migrated:
            return 1.0
        factor = 1.0
        for spec in self._rank_slowdowns:
            if (
                spec.at_step <= self._step
                and self._phase_matches(spec)
                and self._slowdown_targets_rank(spec, rank)
            ):
                factor *= spec.factor
        return factor

    def mark_migrated(self, ranks: Sequence[int]) -> None:
        """Exempt ``ranks`` from slowdown targeting from now on.

        The migration response calls this after a member's work is
        moved off degraded hardware: a spec models a slow *node*, and
        the migrated ranks no longer run there (other ranks still on
        that node stay slow).
        """
        self._migrated.update(int(r) for r in ranks)

    def take_due_bitflips(self) -> Tuple[FaultSpec, ...]:
        """Bitflip specs due at the current step, each returned once.

        Call after :meth:`begin_step`; the driver applies the
        corruption (see ``SharedCmatScheme.corrupt_shard``).  Fired
        specs never return again, so replaying rolled-back steps after
        a recovery does not re-corrupt the repaired shard.
        """
        due = []
        for i, spec in enumerate(self._bitflips):
            if i not in self._fired_bitflips and spec.at_step <= self._step:
                self._fired_bitflips.add(i)
                due.append(spec)
        return tuple(due)

    @property
    def has_bitflips(self) -> bool:
        """Whether the plan contains any ``bitflip`` spec (fired or not)."""
        return bool(self._bitflips)

    @property
    def has_slowdowns(self) -> bool:
        """Whether the plan contains any rank/node ``slowdown`` spec."""
        return bool(self._rank_slowdowns)
