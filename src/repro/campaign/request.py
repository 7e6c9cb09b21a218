"""Simulation requests and the campaign's submission queue.

A :class:`SimRequest` is one user's ask: run this
:class:`~repro.cgyro.params.CgyroInput`, with a priority and an arrival
time in campaign (simulated) seconds.  Requests are JSON
round-trippable so a request stream can live in a file, be posted to a
service, or be replayed deterministically in benchmarks.

The :class:`RequestQueue` orders pending requests by priority (higher
first), then arrival time, then submission order — a plain priority
queue; *discovering which requests can share a cmat is deliberately
not its job* (see :class:`~repro.campaign.batcher.SignatureBatcher`).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from repro import records
from repro.errors import CampaignError
from repro.cgyro.params import CgyroInput


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimRequest(records.Record):
    """One simulation request in the campaign stream.

    Parameters
    ----------
    request_id:
        Unique identifier within the campaign.
    input:
        The simulation to run.
    priority:
        Higher runs earlier; requests of equal priority are served in
        arrival order.
    arrival_s:
        Submission time on the campaign's simulated clock.
    attempt:
        How many times this request has already been dispatched; bumped
        by the runner when a member is lost to a fault and requeued.
    tenant:
        Owning tenant for the online service's fairness accounting;
        ``None`` (the batch-campaign default) means unattributed.
    deadline_s:
        SLO deadline on the campaign clock — the request should finish
        by this time.  ``None`` means no deadline; the online service
        derives one from the tenant's SLO when absent.
    """

    request_id: str
    input: CgyroInput
    priority: int = 0
    arrival_s: float = 0.0
    attempt: int = 0
    tenant: Optional[str] = None
    deadline_s: Optional[float] = None

    #: request files carry the (long) input last
    record_keys = (
        "request_id", "priority", "arrival_s", "attempt", "tenant",
        "deadline_s", "input",
    )
    record_error = CampaignError

    def requeued(self) -> "SimRequest":
        """A copy representing the retry after a lost dispatch.

        Keeps the original priority and arrival time (queue-latency
        accounting measures from first submission); only the attempt
        counter advances.
        """
        return replace(self, attempt=self.attempt + 1)


class RequestQueue:
    """Priority + arrival ordered queue of :class:`SimRequest`.

    Pop order: highest priority first, then earliest ``arrival_s``,
    then submission order (stable for ties).  Duplicate request ids
    are rejected — a campaign needs unambiguous requeue accounting.
    """

    def __init__(self, requests: Optional[Iterable[SimRequest]] = None) -> None:
        self._heap: List[tuple] = []
        self._seq = 0
        self._ids: set = set()
        for req in requests or ():
            self.submit(req)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def submit(self, request: SimRequest) -> None:
        """Add one request; raises on a duplicate live id."""
        if request.request_id in self._ids:
            raise CampaignError(
                f"request id {request.request_id!r} is already queued"
            )
        self._ids.add(request.request_id)
        heapq.heappush(
            self._heap,
            (-request.priority, request.arrival_s, self._seq, request),
        )
        self._seq += 1

    def pop(self) -> SimRequest:
        """Remove and return the next request to serve."""
        if not self._heap:
            raise CampaignError("pop from an empty request queue")
        request = heapq.heappop(self._heap)[-1]
        self._ids.discard(request.request_id)
        return request

    def drain(self) -> List[SimRequest]:
        """Pop everything, in queue order."""
        out: List[SimRequest] = []
        while self._heap:
            out.append(self.pop())
        return out

    def pending(self) -> List[SimRequest]:
        """Queue-ordered snapshot without consuming the queue."""
        return [item[-1] for item in sorted(self._heap)]

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_json(self, path: "Union[str, Path, None]" = None, *, indent: int = 2) -> str:
        """Serialise the pending requests (queue order); optionally write
        the JSON to ``path``."""
        doc = _QueueFile(tuple(self.pending()))
        text = json.dumps(records.dump(doc), indent=indent)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "RequestQueue":
        """Load a queue from a JSON file; anything but
        ``{"requests": [...]}`` of well-formed requests is a
        :class:`~repro.errors.CampaignError` naming file and key."""
        return cls(records.load_json(_QueueFile, path, error=CampaignError).requests)


@dataclass(frozen=True)
class _QueueFile:
    """A request-queue document, as the record codec dumps and checks it."""

    requests: Tuple[SimRequest, ...]
