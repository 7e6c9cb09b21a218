"""Signature batching over a moving window of pending requests.

The batch campaign could hand the :class:`SignatureBatcher` a *drained*
queue — every request it would ever see — and emit maximal groups.  A
service never has that luxury: requests trickle in, and holding one
back to wait for share-mates trades its latency for the ensemble's
efficiency.  :class:`MovingWindow` makes that trade explicit with a
two-knob policy:

- a candidate signature group flushes as soon as it reaches
  ``min_batch`` members (enough sharing to be worth a dispatch), and
- *any* held request flushes its group once it has waited
  ``max_hold_s`` — the hold-time guarantee: batching may delay a
  request, but never beyond the policy bound.

Grouping itself is delegated to the same
:class:`~repro.campaign.batcher.SignatureBatcher` the batch campaign
uses (so the moving-window law — a flushed window yields exactly the
:func:`~repro.xgyro.validate.group_by_signature` partition of its
flushed members — holds by construction, and is property-tested in
``tests/test_service_window.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ServiceError
from repro.campaign.batcher import CandidateBatch, SignatureBatcher
from repro.campaign.request import SimRequest


@dataclass(frozen=True)
class WindowPolicy:
    """When a held signature group becomes a dispatchable batch.

    Parameters
    ----------
    max_hold_s:
        Longest any request may sit in the window; its group flushes
        (whatever its size) once the oldest member reaches this age.
        ``0`` degenerates to flush-on-arrival.
    min_batch:
        Group size that triggers an immediate flush — the "enough
        sharing" threshold.  ``1`` flushes every request immediately
        (the FIFO baseline).
    max_batch:
        Optional cap on members per emitted batch; an oversized group
        flushes as several batches and any sub-``min_batch`` remainder
        keeps waiting under the hold clock.
    """

    max_hold_s: float = 30.0
    min_batch: int = 4
    max_batch: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_hold_s < 0:
            raise ServiceError(
                f"max_hold_s must be >= 0, got {self.max_hold_s}"
            )
        if self.min_batch < 1:
            raise ServiceError(f"min_batch must be >= 1, got {self.min_batch}")
        if self.max_batch is not None and self.max_batch < 1:
            raise ServiceError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )


class MovingWindow:
    """The service's holding pen: admitted, not yet dispatched.

    Requests enter with :meth:`add` at their admission time and leave
    in :meth:`flush` batches.  The window never reorders a group's
    members (queue order in, queue order out) and never mixes
    signatures or cadences in one batch — both inherited from
    :class:`SignatureBatcher`.
    """

    def __init__(self, policy: Optional[WindowPolicy] = None) -> None:
        self.policy = policy or WindowPolicy()
        self._batcher = SignatureBatcher(max_batch=self.policy.max_batch)
        self._held: List[SimRequest] = []
        self._since: Dict[str, float] = {}  # request_id -> held-since

    # ------------------------------------------------------------------
    def add(self, request: SimRequest, now: float) -> None:
        """Hold ``request`` from time ``now``."""
        if request.request_id in self._since:
            raise ServiceError(
                f"request {request.request_id!r} is already in the window"
            )
        self._held.append(request)
        self._since[request.request_id] = float(now)

    # ------------------------------------------------------------------
    def next_expiry(self) -> Optional[float]:
        """Earliest time a held request hits its hold bound (the
        service schedules its flush timer here); ``None`` when empty."""
        if not self._since:
            return None
        return min(self._since.values()) + self.policy.max_hold_s

    def flush(self, now: float, *, force: bool = False) -> List[CandidateBatch]:
        """Remove and return every batch that is ready at ``now``.

        A candidate batch is ready when it has ``min_batch`` members,
        when its oldest member has been held ``max_hold_s``, or when
        ``force`` is set (service drain).  Returned batches preserve
        the batcher's emission order; unready groups stay held.
        """
        if not self._held:
            return []
        ready: List[CandidateBatch] = []
        flushed_ids: set = set()
        for batch in self._batcher.batch(self._held):
            oldest = min(self._since[r.request_id] for r in batch.requests)
            # ``oldest + max_hold_s`` mirrors :meth:`next_expiry` exactly,
            # so a flush at the advertised expiry always fires (the
            # algebraically equal ``now - oldest >= max_hold_s`` can be
            # false at that instant under float rounding)
            if (
                force
                or batch.size >= self.policy.min_batch
                or now >= oldest + self.policy.max_hold_s
            ):
                ready.append(batch)
                flushed_ids.update(r.request_id for r in batch.requests)
        if flushed_ids:
            self._held = [
                r for r in self._held if r.request_id not in flushed_ids
            ]
            for rid in flushed_ids:
                del self._since[rid]
        return ready
