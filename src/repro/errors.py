"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Sub-hierarchies mirror the major
subsystems (virtual MPI, machine/memory model, decomposition, solver
input, ensemble validation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class VmpiError(ReproError):
    """Base class for virtual-MPI substrate errors."""


class CommunicatorError(VmpiError):
    """A communicator was constructed or used inconsistently.

    Raised, e.g., when a collective is invoked with data for a rank set
    that does not match the communicator's membership, or when a rank is
    translated through a communicator it does not belong to.
    """


class CollectiveError(VmpiError):
    """A collective call received malformed buffers.

    Examples: an ``alltoall`` send list whose length differs from the
    communicator size, or an ``allreduce`` whose per-rank arrays have
    mismatched shapes.
    """


class ProtocolError(VmpiError):
    """A collective protocol violation, diagnosed rather than deadlocked.

    Raised by :class:`repro.check.CollectiveChecker` (and the trace
    lint built on it) when a collective schedule is inconsistent: a
    kind/op/dtype/byte-count mismatch across a group, a rank posting
    while still mid-flight on an overlapping communicator, membership
    drift behind one communicator label, reuse of a block already moved
    by ``alltoall``, or a wait-for cycle that would hang a real MPI
    job.  The diagnosis names the ranks, communicator labels, and
    checker sequence numbers involved.

    Attributes
    ----------
    ranks:
        World ranks involved in the violation, sorted.
    comm_labels:
        Labels of the communicators involved, in first-mention order.
    seqs:
        Checker sequence numbers of the offending posts, sorted.
    code:
        Short machine-readable violation class (``"mismatch"``,
        ``"deadlock"``, ``"membership"``, ``"mid-flight"``,
        ``"moved-block"``, ...).
    """

    def __init__(
        self,
        message: str,
        *,
        ranks: "tuple[int, ...]" = (),
        comm_labels: "tuple[str, ...]" = (),
        seqs: "tuple[int, ...]" = (),
        code: str = "",
    ) -> None:
        super().__init__(message)
        self.ranks = tuple(sorted(int(r) for r in ranks))
        self.comm_labels = tuple(comm_labels)
        self.seqs = tuple(sorted(int(s) for s in seqs))
        self.code = code


class MachineError(ReproError):
    """Base class for machine-model errors."""


class MemoryLimitExceeded(MachineError):
    """A simulated rank attempted to allocate past its memory budget.

    Attributes
    ----------
    rank:
        World rank whose ledger overflowed (or ``None`` for a
        stand-alone ledger).
    requested_bytes:
        Size of the allocation that failed.
    in_use_bytes:
        Bytes already allocated when the request was made.
    limit_bytes:
        The ledger's capacity.
    breakdown:
        Mapping of live allocation name -> bytes, for diagnostics.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: "int | None" = None,
        requested_bytes: int = 0,
        in_use_bytes: int = 0,
        limit_bytes: int = 0,
        breakdown: "dict[str, int] | None" = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.requested_bytes = requested_bytes
        self.in_use_bytes = in_use_bytes
        self.limit_bytes = limit_bytes
        self.breakdown = dict(breakdown or {})


class LedgerError(MachineError, ValueError):
    """A memory ledger was used inconsistently.

    Examples: registering an allocation name that is already live, or a
    negative allocation size.  Derives from :class:`ValueError` for
    backward compatibility with callers that caught the historical
    bare-``ValueError`` behaviour.
    """


class PlacementError(MachineError):
    """Rank-to-node placement was inconsistent with the machine model."""


class DecompositionError(ReproError):
    """A domain decomposition request cannot be satisfied.

    Raised when the processor grid does not divide the phase-space
    dimensions, or when the requested rank count cannot be factored into
    a valid (toroidal x velocity/configuration) grid.
    """


class InputError(ReproError):
    """A solver input parameter (or input file) is invalid."""


class ResilienceError(ReproError):
    """Base class for fault-injection and recovery errors."""


class FaultPlanError(ResilienceError):
    """A fault plan is malformed or inconsistent with the machine.

    Raised when a plan targets a rank/node outside the world, uses an
    unknown fault kind, or carries invalid timing/factor parameters.
    """


class RankFailure(ResilienceError):
    """One or more virtual ranks died and the loss was detected.

    Raised from a collective boundary (the point where a real MPI job
    observes a peer's death as a timeout).  By the time this propagates,
    the detection timeout has already been charged to the surviving
    participants' simulated clocks.

    Attributes
    ----------
    failed_ranks:
        World ranks found dead since the previous failure, sorted (a
        rank that died earlier was named by the failure that found it).
    step:
        Ensemble step index during which the loss was detected.
    detected_at_s:
        Simulated time at which the survivors finished the detection
        timeout.
    detection_timeout_s:
        Simulated seconds the detecting group spent waiting.
    comm_label:
        Label of the communicator whose collective hit the dead rank.
    kind:
        Collective kind that detected the failure.
    """

    def __init__(
        self,
        message: str,
        *,
        failed_ranks: "tuple[int, ...]" = (),
        step: int = -1,
        detected_at_s: float = 0.0,
        detection_timeout_s: float = 0.0,
        comm_label: str = "",
        kind: str = "",
    ) -> None:
        super().__init__(message)
        self.failed_ranks = tuple(sorted(int(r) for r in failed_ranks))
        self.step = step
        self.detected_at_s = detected_at_s
        self.detection_timeout_s = detection_timeout_s
        self.comm_label = comm_label
        self.kind = kind


class RecoveryFailed(ResilienceError):
    """A failed ensemble could not (or should not) shrink-and-recover.

    ``reason`` is the human-readable abort rationale, so job-level
    tooling can report why the run was aborted rather than degraded;
    which ranks were dead is the fault injector's to say.
    """

    def __init__(self, message: str, *, reason: str = "") -> None:
        super().__init__(message)
        self.reason = reason


class CampaignError(ReproError):
    """The campaign scheduler could not queue, pack, or run a job.

    Raised when a request stream is malformed (bad JSON, duplicate
    request ids), when a request cannot fit the machine at any node
    count even alone (k=1), or when the runner is driven
    inconsistently.
    """


class PlanError(ReproError):
    """The decomposition/placement autotuner failed.

    Raised when the search space is empty (no feasible geometry for the
    requested ensemble on the machine), when a plan artifact is
    malformed or inconsistent with the machine/input it is applied to,
    or when a planner is driven with invalid arguments.
    """


class ServiceError(ReproError):
    """The online campaign service was configured or driven badly.

    Raised when a traffic model or service policy is constructed with
    invalid parameters, when the elastic pool is asked to allocate
    nodes it does not hold, or when ready work can never be placed
    even with the pool fully grown and idle.
    """


class EnsembleValidationError(ReproError):
    """An XGYRO ensemble is invalid.

    The dominant case: member inputs disagree on a parameter that
    influences the collisional constant tensor (``cmat``), so the tensor
    cannot be shared.  The offending parameter names are carried in
    :attr:`mismatched_fields`.
    """

    def __init__(self, message: str, *, mismatched_fields: "tuple[str, ...]" = ()) -> None:
        super().__init__(message)
        self.mismatched_fields = tuple(mismatched_fields)


class JournalCrash(ServiceError):
    """The injected write-ahead-log crash point was reached.

    Raised by :class:`~repro.service.journal.ServiceJournal` when its
    ``crash_at_event`` index comes due: the event is *not* written and
    the exception unwinds the service loop, simulating the control
    plane dying mid-flight.  Recovery tests catch it and replay the
    surviving journal prefix.
    """


class InvariantViolation(ReproError):
    """A chaos-scenario closed-loop invariant failed.

    Raised by :mod:`repro.check.invariants` when a service run under an
    injected fault schedule loses or duplicates a request, breaks
    ledger conservation, diverges from its own write-ahead log, or
    degrades beyond the scenario's SLO floor.
    """
