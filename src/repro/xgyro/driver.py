"""The XGYRO ensemble driver.

Runs k member simulations as one job, in lockstep per phase:

    for each step:
        every member: streaming phase   (per-member comm_1 AllReduces)
        every member: nonlinear phase   (per-member comm_2 AllToAlls)
        once:         ensemble coll     (shared cmat, Figure-3 comms)

Members occupy disjoint contiguous rank blocks of one virtual world,
so their phases overlap in simulated time exactly as concurrent
members overlap on a real machine; the ensemble's wall time is the max
over members' clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import EnsembleValidationError, InputError, RecoveryFailed
from repro.cgyro.params import CgyroInput
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.timing import ReportRow, delta, snapshot
from repro.vmpi.world import VirtualWorld
from repro.xgyro.partition import partition_ranks
from repro.xgyro.shared_cmat import SharedCmatScheme


@dataclass
class EnsembleReport:
    """One reporting interval of a whole ensemble.

    ``member_rows`` carries each member's physics and timings;
    ``ensemble`` aggregates them the way a concurrent job's clock
    does — wall and per-category times are maxima over members.
    """

    member_rows: List[ReportRow]
    ensemble: ReportRow


class XgyroEnsemble:
    """k CGYRO simulations as a single job with one shared cmat.

    Parameters
    ----------
    world:
        The virtual world for the whole job; its ranks are split into
        equal contiguous member blocks.
    inputs:
        Member inputs; must agree on all cmat-relevant parameters.
    charge_cmat_build:
        Charge the shared tensor's assembly cost to the simulated
        clocks (default).  ``False`` models a warm start — the machine
        already holds this signature's tensor from a previous job, so
        only the memory is re-registered (see
        :class:`~repro.campaign.cache.CmatCache`).
    nc_counts:
        Optional explicit (possibly unbalanced) shard sizes for the
        shared tensor, passed through to
        :class:`~repro.xgyro.shared_cmat.SharedCmatScheme`; ``None``
        keeps the balanced split.  Physics-neutral either way.
    overlap:
        One of :data:`~repro.cgyro.solver.OVERLAP_MODES`, forwarded to
        every member (``str``: pipelined field-solve AllReduces) and to
        the shared-cmat scheme (``coll``: pipelined ensemble
        AllToAlls); ``full`` enables both, ``off`` (default) is
        bit-identical to the historical blocking schedule in both
        physics *and* modeled cost.
    """

    def __init__(
        self,
        world: VirtualWorld,
        inputs: Sequence[CgyroInput],
        *,
        charge_cmat_build: bool = True,
        nc_counts: Optional[Sequence[int]] = None,
        overlap: str = "off",
    ) -> None:
        if len(inputs) == 0:
            raise EnsembleValidationError("an ensemble needs at least one member")
        self.world = world
        self.inputs = tuple(inputs)
        self.overlap = overlap
        blocks = partition_ranks(range(world.n_ranks), len(inputs))
        self.scheme = SharedCmatScheme(
            charge_build=charge_cmat_build, nc_counts=nc_counts, overlap=overlap
        )
        self.members: List[CgyroSimulation] = []
        for m, (inp, block) in enumerate(zip(inputs, blocks)):
            label = f"xgyro.m{m}.{inp.name}"
            self.members.append(
                CgyroSimulation(
                    world,
                    block,
                    inp,
                    collision_scheme=self.scheme,
                    label=label,
                    overlap=overlap,
                )
            )
        self.scheme.finalize()
        self.step_count = 0

    @property
    def n_members(self) -> int:
        """Ensemble size k."""
        return len(self.members)

    @property
    def ranks(self) -> tuple:
        """All world ranks of the job, in member order."""
        return tuple(r for m in self.members for r in m.ranks)

    def member_states(self) -> "List[object]":
        """Global ``(nc, nv, nt)`` state per member, in member order.

        The quantity the differential oracle
        (:mod:`repro.check.oracle`) compares against independent
        baseline runs; gathering is pure assembly, charging nothing.
        """
        return [m.gather_h() for m in self.members]

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One lockstep time step of the whole ensemble."""
        with self.world.span(
            f"xgyro.step{self.step_count}", "step", ranks=self.ranks
        ):
            for i, m in enumerate(self.members):
                with self.world.span(
                    f"{m.label}.str",
                    "phase",
                    ranks=m.ranks,
                    category="str_compute",
                    member=i,
                ):
                    m.streaming_phase()
            for i, m in enumerate(self.members):
                if not m.inp.nonlinear:
                    continue
                with self.world.span(
                    f"{m.label}.nl",
                    "phase",
                    ranks=m.ranks,
                    category="nl_compute",
                    member=i,
                ):
                    m.nonlinear_phase()
            with self.world.span(
                "xgyro.coll",
                "phase",
                ranks=self.ranks,
                category="coll_compute",
            ):
                self.scheme.ensemble_collision_step()
        for m in self.members:
            m.time += m.inp.delta_t
            m.step_count += 1
        self.step_count += 1

    def drop_members(
        self,
        lost_members: Sequence[int],
        dead_ranks: Optional[Set[int]] = None,
        *,
        category: str = "recovery_cmat_build",
    ) -> int:
        """Shrink the ensemble, dropping ``lost_members`` (by index).

        The shared-cmat scheme rebuilds its Figure-3 partition over the
        survivors — they keep their shards and adopt (recompute) the
        removed ranks' configuration points, charged under ``category``
        — and the dropped members' buffers are released from the memory
        ledgers.  ``dead_ranks`` extends the removed set with ranks
        that died without belonging to a dropped member.  The survivors'
        state, step counters, and clocks are untouched: rollback is the
        recovery layer's job (:mod:`repro.resilience.recovery`).

        Returns the number of (ic, n) propagator blocks recomputed.
        """
        lost = sorted({int(i) for i in lost_members})
        for i in lost:
            if not 0 <= i < len(self.members):
                raise EnsembleValidationError(
                    f"member index {i} out of range [0, {len(self.members)})"
                )
        survivors = [m for i, m in enumerate(self.members) if i not in set(lost)]
        if not survivors:
            raise RecoveryFailed("cannot drop every member of an ensemble")
        removed = set(dead_ranks or ())
        for i in lost:
            removed.update(self.members[i].ranks)
        rebuilt = self.scheme.recover_after_loss(
            survivors, removed, category=category
        )
        for i in lost:
            m = self.members[i]
            prefix = f"{m.label}."
            for r in m.ranks:
                ledger = self.world.ledgers[r]
                for name in list(ledger.breakdown()):
                    if name.startswith(prefix):
                        ledger.free(name)
        self.members = survivors
        self.inputs = tuple(m.inp for m in survivors)
        return rebuilt

    def run_report_interval(self) -> EnsembleReport:
        """Advance one reporting interval and report per member + job.

        All members must share ``steps_per_report`` (they share cmat,
        hence ``delta_t``; report cadence is validated here).
        """
        cadences = {m.inp.steps_per_report for m in self.members}
        if len(cadences) != 1:
            raise InputError(
                f"members disagree on steps_per_report: {sorted(cadences)}"
            )
        steps = cadences.pop()
        before = {m.label: snapshot(self.world, m.ranks) for m in self.members}
        for _ in range(steps):
            self.step()
        member_rows: List[ReportRow] = []
        for i, m in enumerate(self.members):
            with self.world.span(
                f"{m.label}.diag",
                "phase",
                ranks=m.ranks,
                category="diag",
                member=i,
            ):
                flux, phi2 = m.diagnostics()
            after = snapshot(self.world, m.ranks)
            diff = delta(after, before[m.label])
            wall = diff.pop("elapsed")
            member_rows.append(
                ReportRow(
                    step=m.step_count,
                    time=m.time,
                    wall_s=wall,
                    categories=diff,
                    flux=flux,
                    phi2=phi2,
                )
            )
        ensemble = self._aggregate(member_rows)
        return EnsembleReport(member_rows=member_rows, ensemble=ensemble)

    @staticmethod
    def _aggregate(rows: List[ReportRow]) -> ReportRow:
        """Concurrent aggregation: max over members per category."""
        cats: Dict[str, float] = {}
        for r in rows:
            for k, v in r.categories.items():
                cats[k] = max(cats.get(k, 0.0), v)
        return ReportRow(
            step=rows[0].step,
            time=rows[0].time,
            wall_s=max(r.wall_s for r in rows),
            categories=cats,
            flux=rows[0].flux,
            phi2=rows[0].phi2,
        )

    def run(self, n_reports: int) -> List[EnsembleReport]:
        """Run ``n_reports`` reporting intervals."""
        if n_reports < 0:
            raise InputError(f"n_reports must be >= 0, got {n_reports}")
        return [self.run_report_interval() for _ in range(n_reports)]
