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
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

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
        self.offered = 0
        self.admitted = 0
        self.rejections: List[RejectionRecord] = []

    @property
    def shed(self) -> int:
        """Requests turned away."""
        return len(self.rejections)

    @property
    def shed_rate(self) -> float:
        """Shed over offered (0.0 before any arrival)."""
        return self.shed / self.offered if self.offered else 0.0

    def try_admit(
        self, request: SimRequest, pending: int
    ) -> Optional[RejectionRecord]:
        """Admit ``request`` given ``pending`` in-system requests.

        Returns ``None`` on admission, the shed record otherwise
        (also appended to :attr:`rejections`).
        """
        self.offered += 1
        if self.max_pending is not None and pending >= self.max_pending:
            record = RejectionRecord(
                request_id=request.request_id,
                tenant=request.tenant or UNATTRIBUTED,
                arrival_s=request.arrival_s,
                pending=pending,
                reason=f"pending {pending} >= max_pending {self.max_pending}",
            )
            self.rejections.append(record)
            return record
        self.admitted += 1
        return None


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
    """

    def __init__(self, weights: Optional[Mapping[str, float]] = None) -> None:
        self._weights: Dict[str, float] = {}
        for name, w in (weights or {}).items():
            if w <= 0:
                raise ServiceError(
                    f"tenant weight must be > 0, got {w} for {name!r}"
                )
            self._weights[str(name)] = float(w)
        self._served: Dict[str, float] = {}

    def weight(self, tenant: "str | None") -> float:
        """The tenant's share weight (1.0 when unlisted)."""
        return self._weights.get(tenant or UNATTRIBUTED, 1.0)

    def normalised_service(self, tenant: "str | None") -> float:
        """Node-seconds served to the tenant, over its weight."""
        name = tenant or UNATTRIBUTED
        return self._served.get(name, 0.0) / self.weight(name)

    def charge(
        self, members: Iterable[SimRequest], node_seconds: float
    ) -> None:
        """Split one dispatch's node-seconds evenly over its members
        and charge each member's tenant."""
        if node_seconds < 0:
            raise ServiceError(
                f"node_seconds must be >= 0, got {node_seconds}"
            )
        members = list(members)
        if not members:
            return
        share = node_seconds / len(members)
        for req in members:
            name = req.tenant or UNATTRIBUTED
            self._served[name] = self._served.get(name, 0.0) + share

    def served(self) -> Dict[str, float]:
        """Raw node-seconds charged per tenant, sorted by name."""
        return dict(sorted(self._served.items()))

    def restore_served(self, served: Mapping[str, float]) -> None:
        """Overwrite the per-tenant service ledger from a
        :meth:`served` snapshot (journal replay)."""
        self._served = {str(k): float(v) for k, v in served.items()}

    # ------------------------------------------------------------------
    def batch_key(
        self,
        members: Iterable[SimRequest],
        seq: int,
        *,
        default_deadline_s: float = float("inf"),
    ) -> Tuple[float, float, int]:
        """Dispatch-order key for one ready batch: least-served member
        tenant first, then earliest deadline, then flush sequence."""
        members = list(members)
        if not members:
            raise ServiceError("cannot key an empty batch")
        service = min(self.normalised_service(r.tenant) for r in members)
        deadline = min(
            r.deadline_s if r.deadline_s is not None else default_deadline_s
            for r in members
        )
        return (service, deadline, seq)
