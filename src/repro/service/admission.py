"""Admission control, load shedding, and tenant-fair batch ordering.

Two small pieces of policy, both deliberately independent of the event
loop that applies them:

- :class:`AdmissionController` — a bounded front door.  The service
  holds at most ``max_pending`` requests that have not yet started
  work (window + flushed-but-unplaced); an arrival beyond that is
  *shed* with an explicit :class:`RejectionRecord` rather than queued
  into unbounded latency.  Shedding at the door is the backpressure
  mechanism: under sustained overload the service degrades to a known
  shed rate instead of an ever-growing backlog.

- :class:`FairSharePolicy` — who goes next.  Dispatch cost (node
  seconds, split evenly over a job's members) is charged to each
  member's tenant, normalised by the tenant's weight; ready batches
  are ordered by the *least-served* tenant among their members, then
  earliest deadline (EDF inside a tenant's share), then flush order.
  A shared batch may span tenants — sharing the tensor is the whole
  point — so the batch inherits its most underserved member's claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ServiceError
from repro.campaign.request import SimRequest
from repro.records import Record

#: Tenant bucket for requests submitted without one.
UNATTRIBUTED = "default"


@dataclass(frozen=True)
class RejectionRecord(Record):
    """One shed request: who, when, and why the door was closed."""

    request_id: str
    tenant: str
    arrival_s: float
    pending: int  # in-system count at the shed decision
    reason: str


class AdmissionController:
    """Bounded admission with explicit load shed.

    Parameters
    ----------
    max_pending:
        Most requests allowed in the pending set (window plus flushed
        batches waiting for nodes).  ``None`` disables shedding — the
        legacy unbounded queue.
    """

    def __init__(self, max_pending: "int | None" = None) -> None:
        if max_pending is not None and max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.max_pending = max_pending

    def try_admit(
        self,
        request: SimRequest,
        pending: int,
        *,
        down_until: Optional[float] = None,
    ) -> Optional[RejectionRecord]:
        """Decide ``request`` given ``pending`` in-system requests:
        ``None`` admits it, a shed record turns it away.  With
        ``down_until`` set the control plane is down: the door is
        closed and the (conceptual) load balancer sheds every arrival,
        recorded explicitly so request conservation still holds.  Only
        a decision — the service journals it and the fold books the
        offered / admitted counts and the rejection.
        """
        if down_until is not None:
            reason = (
                f"service down until t={down_until:.3f} "
                "(control-plane crash)"
            )
        elif self.max_pending is not None and pending >= self.max_pending:
            reason = f"pending {pending} >= max_pending {self.max_pending}"
        else:
            return None
        return RejectionRecord(
            request_id=request.request_id,
            tenant=request.tenant or UNATTRIBUTED,
            arrival_s=request.arrival_s,
            pending=pending,
            reason=reason,
        )


# ----------------------------------------------------------------------
class FairSharePolicy:
    """Weighted fair service accounting with EDF tie-breaking.

    Parameters
    ----------
    weights:
        Tenant name -> relative share; tenants not listed get weight
        1.0.  A tenant's *normalised service* is the node-seconds
        charged to it divided by its weight; the scheduler always
        prefers the batch whose most underserved member tenant has the
        smallest normalised service.

    The policy keeps no ledger of its own: every method takes
    ``served`` — raw node-seconds charged per tenant so far, which the
    service's fold carries as ``tenant_served``.
    """

    def __init__(self, weights: Optional[Mapping[str, float]] = None) -> None:
        self._weights: Dict[str, float] = {}
        for name, w in (weights or {}).items():
            if w <= 0:
                raise ServiceError(
                    f"tenant weight must be > 0, got {w} for {name!r}"
                )
            self._weights[str(name)] = float(w)

    def weight(self, tenant: "str | None") -> float:
        """The tenant's share weight (1.0 when unlisted)."""
        return self._weights.get(tenant or UNATTRIBUTED, 1.0)

    def normalised_service(
        self, served: Mapping[str, float], tenant: "str | None"
    ) -> float:
        """Node-seconds served to the tenant, over its weight."""
        name = tenant or UNATTRIBUTED
        return served.get(name, 0.0) / self.weight(name)

    def charge(
        self,
        served: Mapping[str, float],
        members: Iterable[SimRequest],
        node_seconds: float,
    ) -> Dict[str, float]:
        """``served`` after splitting one dispatch's node-seconds
        evenly over its members and charging each member's tenant
        (a new ledger, sorted by name; ``served`` is not touched)."""
        if node_seconds < 0:
            raise ServiceError(
                f"node_seconds must be >= 0, got {node_seconds}"
            )
        members = list(members)
        after = dict(served)
        for req in members:
            name = req.tenant or UNATTRIBUTED
            after[name] = after.get(name, 0.0) + node_seconds / len(members)
        return dict(sorted(after.items()))

    # ------------------------------------------------------------------
    def batch_key(
        self,
        served: Mapping[str, float],
        members: Iterable[SimRequest],
        seq: int,
    ) -> Tuple[float, float, int]:
        """Dispatch-order key for one ready batch: least-served member
        tenant first, then earliest deadline (none: last), then flush
        sequence."""
        members = list(members)
        if not members:
            raise ServiceError("cannot key an empty batch")
        service = min(
            self.normalised_service(served, r.tenant) for r in members
        )
        deadline = min(
            r.deadline_s if r.deadline_s is not None else float("inf")
            for r in members
        )
        return (service, deadline, seq)
