"""Node health: incident ledgers, quarantine, retry backoff, stragglers.

Gray failures — the ones production ensembles actually die of — never
raise a clean :class:`~repro.errors.RankFailure` on their own.  A
straggling node stalls every collective it participates in; a bit-flip
in the long-lived shared tensor silently poisons k simulations; a
flaky node fails *again* on the retry.  This module holds the pieces
that turn those into bounded, accounted responses:

- :class:`NodeHealthTracker` — a per-node incident ledger with a
  circuit breaker: a node that accumulates ``quarantine_threshold``
  incidents is quarantined and the
  :class:`~repro.campaign.packer.CampaignPacker` stops placing jobs on
  it;
- :class:`RetryPolicy` — exponential backoff with deterministic
  jitter and a max-attempts cap, replacing the campaign runner's
  unbounded same-attempt requeue; requests that exhaust the cap land
  on the :class:`~repro.campaign.report.CampaignReport` dead-letter
  list instead of looping forever;
- :class:`StragglerDetector` — flags ranks whose *imposed* collective
  wait (the time every peer spent waiting on them, accumulated by
  :meth:`~repro.vmpi.world.VirtualWorld.charge_collective`) exceeds a
  robust deviation threshold over the group.

Everything here is deterministic: jitter is derived from a hash of the
retry key, never from a live RNG, so a campaign under a fault plan is
exactly reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ResilienceError
from repro.records import Record

#: Incident kinds a tracker distinguishes (free-form strings are
#: accepted too; these are the ones the runners emit).
INCIDENT_KINDS = ("crash", "straggler", "sdc")


@dataclass(frozen=True)
class HealthIncident(Record):
    """One recorded node incident."""

    node: int
    kind: str  # "crash" | "straggler" | "sdc" | free-form
    at_s: float = 0.0  # campaign/simulated clock of the observation
    detail: str = ""


class NodeHealthTracker:
    """Per-node incident ledger with a circuit-breaker quarantine.

    Parameters
    ----------
    quarantine_threshold:
        A node with this many recorded incidents (of any kind) is
        quarantined — excluded from placement until the operator
        resets it.  ``None`` disables automatic quarantine (incidents
        are still recorded).
    """

    def __init__(self, *, quarantine_threshold: "int | None" = 2) -> None:
        if quarantine_threshold is not None and quarantine_threshold < 1:
            raise ResilienceError(
                f"quarantine_threshold must be >= 1, got {quarantine_threshold}"
            )
        self.quarantine_threshold = quarantine_threshold
        self._incidents: List[HealthIncident] = []
        self._by_node: Dict[int, int] = {}
        self._forced: set = set()
        #: incidents ever recorded, by kind: :meth:`reset` leaves it
        #: alone, so a delta of it counts what happened in between
        self.recorded: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def record(
        self, node: int, kind: str, *, at_s: float = 0.0, detail: str = ""
    ) -> HealthIncident:
        """Append one incident to ``node``'s ledger and return it."""
        if node < 0:
            raise ResilienceError(f"node must be >= 0, got {node}")
        incident = HealthIncident(
            node=int(node), kind=str(kind), at_s=float(at_s), detail=detail
        )
        self._incidents.append(incident)
        self._by_node[incident.node] = self._by_node.get(incident.node, 0) + 1
        self.recorded[incident.kind] = self.recorded.get(incident.kind, 0) + 1
        return incident

    def quarantine(self, node: int) -> None:
        """Force-quarantine ``node`` regardless of its incident count."""
        self._forced.add(int(node))

    def reset(self, node: int) -> None:
        """Clear ``node``'s ledger and any forced quarantine (the
        operator replaced or revalidated the hardware)."""
        node = int(node)
        self._forced.discard(node)
        self._by_node.pop(node, None)
        self._incidents = [i for i in self._incidents if i.node != node]

    # ------------------------------------------------------------------
    def incidents(self, node: "int | None" = None) -> Tuple[HealthIncident, ...]:
        """All incidents, or just ``node``'s, in record order."""
        if node is None:
            return tuple(self._incidents)
        return tuple(i for i in self._incidents if i.node == node)

    def incidents_between(
        self, t0_s: float, t1_s: float
    ) -> Tuple[HealthIncident, ...]:
        """Incidents observed in ``[t0_s, t1_s)``, in record order.

        The monitoring plane's diagnosis lookback: "what went wrong on
        the nodes in the windows leading up to this alert".
        """
        return tuple(
            i for i in self._incidents if t0_s <= i.at_s < t1_s
        )

    def is_quarantined(self, node: int) -> bool:
        """Whether the circuit breaker has tripped for ``node``."""
        node = int(node)
        if node in self._forced:
            return True
        if self.quarantine_threshold is None:
            return False
        return self._by_node.get(node, 0) >= self.quarantine_threshold

    @property
    def quarantined(self) -> Tuple[int, ...]:
        """Currently quarantined nodes, sorted."""
        nodes = set(self._forced)
        if self.quarantine_threshold is not None:
            nodes.update(
                n
                for n, c in self._by_node.items()
                if c >= self.quarantine_threshold
            )
        return tuple(sorted(nodes))

    def available_nodes(self, n_nodes: int) -> List[int]:
        """Node ids of ``range(n_nodes)`` that are not quarantined."""
        return [n for n in range(n_nodes) if not self.is_quarantined(n)]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot for campaign reports."""
        return {
            "quarantine_threshold": self.quarantine_threshold,
            "quarantined": list(self.quarantined),
            "incident_counts": {
                str(n): c for n, c in sorted(self._by_node.items())
            },
            "incidents": [i.to_dict() for i in self._incidents],
        }

    def restore(self, d: Dict[str, object]) -> None:
        """Overwrite this tracker in place from :meth:`to_dict` output
        (journal replay) — in place because the pool, packer, and
        runner all hold references to one shared tracker.  The incident
        ledger is replayed verbatim; quarantined nodes the incident
        counts alone do not explain come back as forced quarantines."""
        self._incidents = []
        self._by_node = {}
        self._forced = set()
        for raw in d.get("incidents", ()):  # type: ignore[union-attr]
            inc = HealthIncident.from_dict(raw)
            self.record(inc.node, inc.kind, at_s=inc.at_s, detail=inc.detail)
        for node in d.get("quarantined", ()):  # type: ignore[union-attr]
            if not self.is_quarantined(int(node)):
                self.quarantine(int(node))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, backed-off retry for fault-lost campaign requests.

    Parameters
    ----------
    max_attempts:
        Total dispatches a request may consume (first try included).
        A request lost on its ``max_attempts``-th dispatch is
        dead-lettered, not requeued.
    base_backoff_s:
        Backoff before the second dispatch, in campaign (simulated)
        seconds.
    backoff_factor:
        Multiplier per further attempt (exponential backoff).
    max_backoff_s:
        Ceiling on any single backoff.
    jitter:
        Fractional jitter amplitude in ``[0, 1)``: the backoff is
        scaled by a factor in ``[1 - jitter, 1 + jitter)`` derived
        *deterministically* from the retry key, so retries of a whole
        lost ensemble de-synchronise without any live randomness.
    """

    max_attempts: int = 3
    base_backoff_s: float = 30.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 600.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        backoffs = (self.base_backoff_s, self.max_backoff_s)
        if not all(0 <= b < float("inf") for b in backoffs):
            raise ResilienceError("backoff times must be in [0, inf)")
        if not 1.0 <= self.backoff_factor < float("inf"):
            raise ResilienceError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ResilienceError(f"jitter must be in [0, 1), got {self.jitter}")

    def allows(self, attempt: int) -> bool:
        """Whether dispatch number ``attempt`` (1-based) may happen."""
        return attempt <= self.max_attempts

    def backoff_s(self, attempts_done: int, key: str = "") -> float:
        """Simulated seconds to hold a request after ``attempts_done``
        failed dispatches, jittered deterministically by ``key``."""
        if attempts_done < 1:
            return 0.0
        base = min(
            self.max_backoff_s,
            self.base_backoff_s * self.backoff_factor ** (attempts_done - 1),
        )
        if self.jitter == 0.0:
            return base
        digest = hashlib.sha256(f"{key}:{attempts_done}".encode()).digest()
        frac = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * frac - 1.0))


# ----------------------------------------------------------------------
def robust_cutoff(
    values: Sequence[float], *, threshold: float, rel_floor: float
) -> Tuple[float, float, float]:
    """``(median, MAD, median + threshold * max(MAD, rel_floor*median))``.

    The robust deviation statistic shared by the straggler detector
    (per-rank imposed wait) and the monitoring plane's anomaly rules
    (per-window metric history): an upper cutoff that one extreme
    sample cannot drag upward, with a relative floor so near-constant
    series (MAD ~ 0) don't flag noise.
    """
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return 0.0, 0.0, 0.0
    med = float(np.median(vals))
    mad = float(np.median(np.abs(vals - med)))
    return med, mad, med + threshold * max(mad, rel_floor * med)


# ----------------------------------------------------------------------
class StragglerDetector:
    """Flags ranks that persistently stall their peers' collectives.

    Works on the *imposed wait* the virtual world accumulates per rank
    (see :attr:`~repro.vmpi.world.VirtualWorld.imposed_wait_s`): for
    every collective, the total time the other participants spent
    blocked is attributed to the last-arriving rank.  Healthy lockstep
    groups spread that attribution noisily and thinly; a slowed rank
    concentrates it.

    A rank is flagged when its imposed wait exceeds

    ``median + THRESHOLD * max(MAD, REL_FLOOR * median)``

    over the inspected ranks *and* ``INTERVAL_FRAC`` of the observation
    interval's elapsed time (when the caller supplies ``interval_s``).
    The robust deviation test means one extreme straggler cannot mask
    itself by dragging the mean; the interval-relative floor makes the
    detector scale-free (healthy lockstep groups have MAD ~ median ~ 0
    and only transient skew far below any real straggler's imprint).
    """

    THRESHOLD = 4.0
    REL_FLOOR = 0.25
    INTERVAL_FRAC = 0.5

    def flag(
        self,
        imposed_wait_s: Sequence[float],
        ranks: Optional[Iterable[int]] = None,
        *,
        interval_s: Optional[float] = None,
    ) -> Tuple[int, ...]:
        """Ranks (indices into ``imposed_wait_s``) flagged as stragglers."""
        waits = np.asarray(imposed_wait_s, dtype=np.float64)
        idx = (
            np.arange(waits.size)
            if ranks is None
            else np.asarray(list(ranks), dtype=np.intp)
        )
        if idx.size < 3:
            return ()  # too few peers for a robust deviation
        vals = waits[idx]
        _med, _mad, cutoff = robust_cutoff(
            vals, threshold=self.THRESHOLD, rel_floor=self.REL_FLOOR
        )
        if interval_s is not None:
            cutoff = max(cutoff, self.INTERVAL_FRAC * float(interval_s))
        return tuple(int(r) for r, v in zip(idx, vals) if v > cutoff)
