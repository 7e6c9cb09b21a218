"""Campaign outcome records and the aggregate report.

Everything here is plain accounting over the runner's dispatch log:
one :class:`RequestRecord` per *completed* request, one
:class:`JobRecord` per dispatched job, folded into a
:class:`CampaignReport` with the service-level numbers the ROADMAP
asks for — throughput in member-steps per simulated second, queue
latency percentiles, cmat-cache hit rate, and node utilisation.

Requests that exhaust the :class:`~repro.resilience.health.RetryPolicy`
attempt cap land on the dead-letter list as :class:`AbandonedRecord`
entries — surfaced, never silently dropped — and the report carries
the :class:`~repro.resilience.health.NodeHealthTracker` snapshot
(incident ledger, quarantined nodes) alongside them.

All times are campaign-clock (simulated) seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.errors import CampaignError
from repro.records import Record


@dataclass(frozen=True)
class RequestRecord(Record):
    """Completion record of one request (written when it finishes)."""

    request_id: str
    job_id: str
    priority: int
    arrival_s: float
    start_s: float
    finish_s: float
    steps: int
    attempts: int

    record_derived = ("queue_latency_s", "turnaround_s")

    @property
    def queue_latency_s(self) -> float:
        """Submission to first byte of useful work, across retries.

        Clamped at zero: a request whose ``arrival_s`` postdates the
        wave that served it (the campaign model has no arrival gating)
        simply waited nothing.
        """
        return max(0.0, self.start_s - self.arrival_s)

    @property
    def turnaround_s(self) -> float:
        """Submission to completion, across retries (clamped like
        :attr:`queue_latency_s`)."""
        return max(0.0, self.finish_s - self.arrival_s)


@dataclass(frozen=True)
class JobRecord(Record):
    """Dispatch record of one packed job."""

    job_id: str
    round: int
    wave: int
    signature_key: str
    k: int
    n_nodes: int
    nodes: Tuple[int, ...]
    steps: int
    start_s: float
    elapsed_s: float
    cache_hit: bool
    cmat_build_s: float
    n_recoveries: int
    lost_request_ids: Tuple[str, ...]


@dataclass(frozen=True)
class WaveRecord(Record):
    """Timeline entry for one wave of node-disjoint jobs."""

    round: int
    wave: int
    start_s: float
    end_s: float
    n_jobs: int
    nodes_busy: int

    #: the derived ``duration_s`` sits between the fields it is made of
    record_keys = (
        "round", "wave", "start_s", "end_s", "duration_s", "n_jobs",
        "nodes_busy",
    )

    @property
    def duration_s(self) -> float:
        """Wave makespan (its slowest job)."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class AbandonedRecord(Record):
    """Dead-letter entry: a request given up on after repeated faults."""

    request_id: str
    attempts: int
    last_job_id: str
    reason: str


def retry_or_abandon(
    retry, request, job_id: str
) -> Union[AbandonedRecord, float]:
    """The one retry decision for a fault-lost ``request``: the
    :class:`AbandonedRecord` once ``retry``'s attempt cap is spent,
    else the backoff seconds before its next dispatch.  ``retry=None``
    (``repro campaign --max-attempts 0``) retries forever, at once.
    Both the campaign runner and the online service decide here; each
    keeps only its own bookkeeping (hold map vs release timer)."""
    attempts_done = request.attempt + 1  # dispatches consumed so far
    if retry is None:
        return 0.0
    if retry.allows(attempts_done + 1):
        return retry.backoff_s(attempts_done, key=request.request_id)
    return AbandonedRecord(
        request_id=request.request_id,
        attempts=attempts_done,
        last_job_id=job_id,
        reason=(
            f"lost to faults on all {attempts_done} dispatch(es); "
            f"retry policy max_attempts={retry.max_attempts}"
        ),
    )


class JobBooks:
    """What a report derives from its ``jobs`` and ``abandoned`` lists
    (mixed into both :class:`CampaignReport` and ``ServiceReport``)."""

    jobs: List[JobRecord]
    abandoned: List[AbandonedRecord]

    @property
    def n_jobs(self) -> int:
        """Jobs dispatched (retries included)."""
        return len(self.jobs)

    @property
    def n_abandoned(self) -> int:
        """Requests dead-lettered after exhausting the retry policy."""
        return len(self.abandoned)

    @property
    def mean_k(self) -> float:
        """Average ensemble size across dispatched jobs."""
        if not self.jobs:
            return 0.0
        return sum(j.k for j in self.jobs) / len(self.jobs)

    @property
    def busy_node_seconds(self) -> float:
        """Node-seconds actually spent running jobs."""
        return sum(j.n_nodes * j.elapsed_s for j in self.jobs)


@dataclass
class CampaignReport(JobBooks, Record):
    """Service-level summary of one campaign run."""

    machine_name: str
    machine_n_nodes: int
    makespan_s: float
    jobs: List[JobRecord] = field(default_factory=list)
    requests: List[RequestRecord] = field(default_factory=list)
    cache: Dict[str, object] = field(default_factory=dict)
    peak_cmat_bytes_per_rank: int = 0
    abandoned: List[AbandonedRecord] = field(default_factory=list)
    quarantined_nodes: Tuple[int, ...] = ()
    health: Dict[str, object] = field(default_factory=dict)
    #: wave timeline (start/end/nodes-busy per wave, in dispatch order)
    waves: List[WaveRecord] = field(default_factory=list)
    #: total imposed straggler wait summed over every dispatch's ranks
    imposed_wait_s: float = 0.0
    #: ``{"node", "start_s", "end_s"}`` per quarantined node — from the
    #: incident that tripped the breaker to the end of the campaign
    quarantine_windows: List[Dict[str, float]] = field(default_factory=list)

    record_error = CampaignError
    record_held_order = ("cache", "health", "quarantine_windows")
    record_keys = (
        "machine_name", "machine_n_nodes", "makespan_s", "n_jobs",
        "n_completed", "n_requeued", "mean_k", "total_member_steps",
        "throughput_member_steps_per_s", "node_utilisation",
        "peak_cmat_bytes_per_rank", "latency_percentiles", "cache",
        "n_abandoned", "abandoned", "quarantined_nodes", "health", "waves",
        "imposed_wait_s", "quarantine_windows", "jobs", "requests",
    )

    def __post_init__(self) -> None:
        if self.machine_n_nodes < 1:
            raise CampaignError(f"machine_n_nodes must be >= 1, got {self.machine_n_nodes}")

    # ------------------------------------------------------------------
    @property
    def n_completed(self) -> int:
        """Requests brought to completion."""
        return len(self.requests)

    @property
    def n_requeued(self) -> int:
        """Member slots lost to faults and sent back to the queue."""
        return sum(len(j.lost_request_ids) for j in self.jobs)

    @property
    def total_member_steps(self) -> int:
        """Completed member-steps (the campaign's useful work)."""
        return sum(r.steps for r in self.requests)

    @property
    def throughput_member_steps_per_s(self) -> float:
        """Useful work rate over the whole campaign."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_member_steps / self.makespan_s

    @property
    def node_utilisation(self) -> float:
        """Busy node-seconds over available node-seconds."""
        if self.makespan_s <= 0:
            return 0.0
        return self.busy_node_seconds / (self.machine_n_nodes * self.makespan_s)

    @property
    def latency_percentiles(self) -> Dict[str, float]:
        """Queue-latency percentiles over completed requests (empty
        before the first completion)."""
        lat = [r.queue_latency_s for r in self.requests]
        qs = (50.0, 90.0, 99.0) if lat else ()
        return {f"p{q:g}": float(np.percentile(lat, q)) for q in qs}
