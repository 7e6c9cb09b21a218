"""Collective-event tracing.

Every collective executed by the virtual world is recorded as a
:class:`CollectiveEvent`.  Traces are how the structural figures of the
paper are reproduced: Figure 1 (which communicator carries the str
AllReduce and the str<->coll AllToAll in CGYRO) and Figure 3 (how XGYRO
separates the per-member str communicator from the ensemble-wide coll
communicator) are *verified from the trace*, not just drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.records import Record


@dataclass(frozen=True)
class CollectiveEvent(Record):
    """One executed collective (a ``repro-trace-v1`` event: ``to_dict``
    / ``from_dict`` come from the record codec).

    Attributes
    ----------
    seq:
        Monotone sequence number within the trace.
    kind:
        Collective kind (``allreduce``, ``alltoall``, ...).
    comm_label:
        Label of the communicator it ran on.
    ranks:
        World ranks that participated, in communicator order.
    n_nodes:
        Distinct nodes the group spanned.
    nbytes:
        Byte count per the kind's convention.
    algorithm:
        Algorithm name used for costing (or "" when fixed).
    t_start:
        Simulated time at which all participants had arrived.
    cost_s:
        Modeled duration.
    category:
        Phase/category label active when the call was made ("" if none).
    nonblocking:
        True when the collective was posted nonblocking (recorded at
        its wait; ``t_start`` is then the post time and ``cost_s`` the
        full modeled cost, part of which may have overlapped compute).
    """

    seq: int
    kind: str
    comm_label: str
    ranks: Tuple[int, ...]
    n_nodes: int
    nbytes: int
    algorithm: str
    t_start: float
    cost_s: float
    category: str
    nonblocking: bool = False

    @property
    def size(self) -> int:
        """Number of participants."""
        return len(self.ranks)


class TraceLog:
    """Append-only log of collective events with query helpers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[CollectiveEvent] = []

    def record(self, event: CollectiveEvent) -> None:
        """Append ``event`` if tracing is enabled."""
        if self.enabled:
            self._events.append(event)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()

    @property
    def events(self) -> Tuple[CollectiveEvent, ...]:
        """Immutable view of all events."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[CollectiveEvent]:
        return iter(self._events)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def filter(
        self,
        *,
        kind: Optional[str] = None,
        category: Optional[str] = None,
        comm_label: Optional[str] = None,
        involving_rank: Optional[int] = None,
    ) -> Tuple[CollectiveEvent, ...]:
        """Events matching every provided criterion."""
        out = []
        for ev in self._events:
            if kind is not None and ev.kind != kind:
                continue
            if category is not None and ev.category != category:
                continue
            if comm_label is not None and ev.comm_label != comm_label:
                continue
            if involving_rank is not None and involving_rank not in ev.ranks:
                continue
            out.append(ev)
        return tuple(out)

    def comm_labels(self) -> Tuple[str, ...]:
        """Distinct communicator labels, in first-seen order."""
        seen: Dict[str, None] = {}
        for ev in self._events:
            seen.setdefault(ev.comm_label, None)
        return tuple(seen)

    def total_time(self, **criteria: Optional[str]) -> float:
        """Sum of modeled durations over matching events."""
        return sum(ev.cost_s for ev in self.filter(**criteria))

    def total_bytes(self, **criteria: Optional[str]) -> int:
        """Sum of byte counts over matching events."""
        return sum(ev.nbytes for ev in self.filter(**criteria))

    def summary(self) -> "Dict[Tuple[str, str], Dict[str, float]]":
        """Aggregate by (kind, category): calls, bytes, time."""
        agg: Dict[Tuple[str, str], Dict[str, float]] = {}
        for ev in self._events:
            key = (ev.kind, ev.category)
            row = agg.setdefault(key, {"calls": 0, "bytes": 0, "time_s": 0.0})
            row["calls"] += 1
            row["bytes"] += ev.nbytes
            row["time_s"] += ev.cost_s
        return agg

    def render_summary(self) -> str:
        """Human-readable summary table."""
        lines = [f"{'kind':<12s} {'category':<16s} {'calls':>8s} {'bytes':>14s} {'time_s':>12s}"]
        for (kind, category), row in sorted(self.summary().items()):
            lines.append(
                f"{kind:<12s} {category or '-':<16s} {int(row['calls']):>8d} "
                f"{int(row['bytes']):>14d} {row['time_s']:>12.6f}"
            )
        return "\n".join(lines)
