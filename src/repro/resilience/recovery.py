"""Shrink-and-recover: degrade a failed ensemble to its survivors.

The sequence, mirroring a ULFM-style shrink on a real machine:

1. decide: a member with any dead rank is lost entirely (its lockstep
   phases cannot advance with a hole in the decomposition), and the
   :class:`RecoveryPolicy` says whether the survivors are worth running
   — degrade (shrink to them) or abort;
2. rebuild the Figure-3 partition over the surviving members —
   survivors keep their shards of the shared collisional tensor and
   adopt the removed ranks' configuration points, recomputing **only
   those** blocks (charged under :data:`REASSEMBLY_CATEGORY`); before
   adoption each survivor's shard is checksum-verified (see
   ``SharedCmatScheme.verify_shards``) so silent corruption can never
   be grandfathered into the rebuilt partition;
3. roll every survivor back to the last checkpoint and resynchronise
   their clocks (clocks never roll back — the discarded simulated time
   is the *lost work* the ledger reports);
4. book the whole episode on the run's
   :class:`~repro.resilience.ledger.RecoveryLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import RankFailure, RecoveryFailed, ResilienceError
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.ledger import RecoveryEvent, RecoveryLedger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.xgyro.driver import XgyroEnsemble

#: Category under which lost-shard recomputation is charged.
REASSEMBLY_CATEGORY = "recovery_cmat_build"
#: Category of the (zero-cost) survivor rendezvous after recovery.
RECOVERY_SYNC_CATEGORY = "recovery_sync"


@dataclass(frozen=True)
class RecoveryPolicy:
    """Degrade-vs-abort thresholds.

    Parameters
    ----------
    min_surviving_members:
        Abort when fewer members than this would survive the shrink.
    max_recoveries:
        Abort on the (n+1)-th failure; ``None`` disables the cap.
    """

    min_surviving_members: int = 1
    max_recoveries: "int | None" = None


def shrink_and_recover(
    ensemble: "XgyroEnsemble",
    failure: RankFailure,
    store: CheckpointStore,
    ledger: RecoveryLedger,
    *,
    policy: RecoveryPolicy = RecoveryPolicy(),
) -> RecoveryEvent:
    """Recover ``ensemble`` from ``failure`` or raise RecoveryFailed.

    On return the ensemble contains only the surviving members, its
    shared cmat covers all of nc again, every survivor's state equals
    the last checkpoint, and the episode is booked on ``ledger``.
    Live ranks of a lost member leave the job too, so their shards are
    recomputed along with the dead ranks' (see
    :meth:`~repro.xgyro.shared_cmat.SharedCmatScheme.recover_after_loss`).
    A dead rank outside every member loses no member: only the
    communicators are rebuilt.
    """
    dead = set(failure.failed_ranks)
    n_before = len(ensemble.members)
    lost = tuple(
        i for i, m in enumerate(ensemble.members) if not dead.isdisjoint(m.ranks)
    )
    survivors, cap = n_before - len(lost), policy.max_recoveries
    reason = ""
    if lost and survivors < policy.min_surviving_members:
        reason = (
            f"{survivors} surviving members < policy minimum "
            f"{policy.min_surviving_members}"
        )
    elif lost and cap is not None and len(ledger) >= cap:
        reason = f"recovery count {len(ledger)} reached policy cap {cap}"
    if reason:
        raise RecoveryFailed(f"aborting instead of shrinking: {reason}", reason=reason)
    if not store.has_checkpoint:
        raise ResilienceError(
            "cannot recover without a checkpoint; save one before stepping"
        )
    world = ensemble.world
    step_at_failure = ensemble.step_count
    all_ranks = range(world.n_ranks)
    before = {
        r: world.category_time(REASSEMBLY_CATEGORY, [r]) for r in all_ranks
    }
    rebuilt = ensemble.drop_members(lost, dead, category=REASSEMBLY_CATEGORY)
    for m in ensemble.members:
        store.restore_member(m)
    ensemble.step_count = store.step
    # survivors rendezvous on a common clock before replaying
    world.sync_charge(ensemble.ranks, 0.0, category=RECOVERY_SYNC_CATEGORY)
    reassembly_s = max(
        world.category_time(REASSEMBLY_CATEGORY, [r]) - before[r]
        for r in all_ranks
    )
    lost_work_s = max(
        0.0,
        (failure.detected_at_s - failure.detection_timeout_s)
        - store.elapsed_at_save,
    )
    event = RecoveryEvent(
        step=failure.step,
        rolled_back_steps=step_at_failure - store.step,
        detected_at_s=failure.detected_at_s,
        detection_s=failure.detection_timeout_s,
        lost_work_s=lost_work_s,
        reassembly_s=reassembly_s,
        rebuilt_blocks=rebuilt,
        failed_ranks=failure.failed_ranks,
        lost_members=lost,
        n_members_before=n_before,
        n_members_after=len(ensemble.members),
    )
    ledger.events.append(event)
    return event
