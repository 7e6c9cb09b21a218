"""The recovery-cost ledger.

Every shrink-and-recover is billed in simulated seconds, split the way
an operator would want to read it:

- **detection** — the timeout the surviving group burned discovering
  the dead peer (charged to their clocks by the injector);
- **lost work** — simulated time between the last checkpoint and the
  failure, thrown away by the rollback (clocks never roll back, so
  this is real elapsed cost, re-paid during replay);
- **re-assembly** — recomputing the dead ranks' shards of the shared
  collisional tensor on the survivors.

Gray failures get their own entries: an :class:`SdcEvent` prices a
detected-and-repaired silent corruption (scan + recompute + any
rollback/replay), a :class:`MigrationEvent` prices a speculative
member migration off a straggling node.  They live in separate lists
so ``len(ledger)`` keeps meaning "crash recoveries".

The ledger is the one book of a run's crashes, SDC repairs and
migrations: :class:`~repro.resilience.runner.RunResult` carries it,
and its readers — :func:`repro.perf.report.render_recovery_report`,
the campaign's node-health incidents, the ``bench_recovery_overhead``
/ ``bench_degraded_mode`` benchmarks — take every count and total
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed shrink-and-recover."""

    step: int  # ensemble step during which the failure was detected
    rolled_back_steps: int  # steps replayed from the checkpoint
    detected_at_s: float  # simulated clock when detection finished
    detection_s: float  # detection timeout charged to survivors
    lost_work_s: float  # checkpoint -> failure simulated time, discarded
    reassembly_s: float  # recomputing lost cmat shards (max over ranks)
    rebuilt_blocks: int  # (ic, n) propagator blocks recomputed
    failed_ranks: Tuple[int, ...]  # ranks this failure found dead
    lost_members: Tuple[int, ...]
    n_members_before: int
    n_members_after: int

    @property
    def total_s(self) -> float:
        """Detection + lost work + re-assembly, simulated seconds."""
        return self.detection_s + self.lost_work_s + self.reassembly_s


@dataclass(frozen=True)
class SdcEvent:
    """One detected-and-repaired silent corruption of a cmat shard."""

    step: int  # checkpoint-boundary step where the scan fired
    ranks: Tuple[int, ...]  # shard owners that failed verification
    rebuilt_blocks: int  # (ic, n) propagator blocks recomputed
    scan_s: float  # checksum scan time charged (max over ranks)
    repair_s: float  # shard recompute time charged (max over ranks)
    rolled_back_steps: int  # steps replayed from the clean checkpoint
    lost_work_s: float  # simulated time discarded by the rollback


@dataclass(frozen=True)
class MigrationEvent:
    """One speculative member migration off a straggling node."""

    step: int  # checkpoint boundary where the migration ran
    rank: int  # straggling world rank vacated
    node: int  # node the rank was placed on
    member: int  # ensemble member index that was migrated
    state_bytes: int  # checkpoint state shipped to the new home
    migrate_s: float  # transfer + restart cost charged to the group
    imposed_wait_s: float  # peer wait the straggler had caused so far


@dataclass
class RecoveryLedger:
    """Accumulates recovery, SDC, and migration events for one run.

    ``len(ledger)`` counts crash recoveries only; SDC repairs and
    migrations are tallied separately (``sdc_events``,
    ``migrations``).
    """

    events: List[RecoveryEvent] = field(default_factory=list, init=False)
    sdc_events: List[SdcEvent] = field(default_factory=list, init=False)
    migrations: List[MigrationEvent] = field(default_factory=list, init=False)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def detection_s(self) -> float:
        """Detection timeouts summed over the crash recoveries."""
        return sum(e.detection_s for e in self.events)

    @property
    def lost_work_s(self) -> float:
        """Discarded checkpoint-to-failure time, summed over recoveries."""
        return sum(e.lost_work_s for e in self.events)

    @property
    def reassembly_s(self) -> float:
        """Lost-shard recomputation, summed over recoveries."""
        return sum(e.reassembly_s for e in self.events)

    @property
    def recovery_overhead_s(self) -> float:
        """Total crash-recovery bill: detection + lost work + re-assembly."""
        return self.detection_s + self.lost_work_s + self.reassembly_s

    @property
    def migration_s(self) -> float:
        """State-transfer time summed over the straggler migrations."""
        return sum(e.migrate_s for e in self.migrations)

    def _render_gray(self) -> List[str]:
        lines = []
        for e in self.sdc_events:
            lines.append(
                f"  sdc step {e.step}: ranks {list(e.ranks)} repaired "
                f"({e.rebuilt_blocks} blocks, scan {e.scan_s:.3f}s, "
                f"repair {e.repair_s:.3f}s, rolled back "
                f"{e.rolled_back_steps} steps / {e.lost_work_s:.3f}s)"
            )
        for e in self.migrations:
            lines.append(
                f"  migration step {e.step}: member {e.member} off rank "
                f"{e.rank} (node {e.node}), {e.state_bytes} B state, "
                f"{e.migrate_s:.3f}s (had imposed {e.imposed_wait_s:.3f}s wait)"
            )
        return lines

    def render(self) -> str:
        """Human-readable recovery table (simulated seconds)."""
        if not self.events:
            gray = self._render_gray()
            if gray:
                return "\n".join(["no crash recoveries"] + gray)
            return "no recoveries"
        lines = [
            f"{'step':>6s} {'members':>9s} {'detect_s':>10s} "
            f"{'lost_work_s':>12s} {'reassembly_s':>13s} {'total_s':>10s}"
        ]
        for e in self.events:
            lines.append(
                f"{e.step:>6d} {e.n_members_before:>4d}->{e.n_members_after:<4d}"
                f"{e.detection_s:>10.3f} {e.lost_work_s:>12.3f} "
                f"{e.reassembly_s:>13.3f} {e.total_s:>10.3f}"
            )
        lines.append(
            f"{'total':>6s} {'':>9s} {self.detection_s:>10.3f} "
            f"{self.lost_work_s:>12.3f} {self.reassembly_s:>13.3f} "
            f"{self.recovery_overhead_s:>10.3f}"
        )
        lines.extend(self._render_gray())
        return "\n".join(lines)
