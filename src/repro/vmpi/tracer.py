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
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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


class CollectiveRows(NamedTuple):
    """Charged collectives of one kind and category as the world holds
    them: chunks of ``rounds`` rounds, row ``m * len(groups) + g`` being
    round ``m`` (counted on across chunks) on ``groups[g]``.  The
    per-group sequences may run past ``len(groups)``; ``t_starts`` has
    one entry per round; ``last_arrival`` and ``wait_s`` one per chunk,
    its round 0's, since every later round finds its group synchronised
    (wait ``0.0``, last arrival its first rank).  ``compute`` is ``None`` or
    the compute charge before each chunk's rows: ``(category, ranks,
    stamps)``, a chunk's stamp being ``(total seconds, span)`` as
    :meth:`VirtualWorld._book_compute` returns it; ``plan`` is the
    world's plan of the statement, whose telemetry series the rows feed;
    ``overlapped_s`` marks a nonblocking completion (one row).
    """

    kind: str
    groups: Tuple[Tuple[int, ...], ...]
    n_nodes: Sequence[int]
    nbytes: Sequence[int]
    algorithms: Sequence[str]
    labels: Sequence[str]
    t_starts: Sequence[Sequence[float]]
    costs: Sequence[float]
    category: str
    rounds: int
    last_arrival: Sequence[Sequence[int]]
    wait_s: Sequence[Sequence[float]]
    compute: Optional[Tuple[str, Tuple[int, ...], Sequence[tuple]]]
    plan: object
    overlapped_s: Optional[float] = None

    def cells(self, n: int) -> Iterator[Tuple[int, float, int]]:
        """``(group index, t_start, last arrival)`` of the first ``n`` rows."""
        n_groups, rounds = len(self.groups), self.rounds
        for j in range(n):
            q, g = divmod(j, n_groups)
            c, m = divmod(q, rounds)
            yield g, self.t_starts[q][g], self.groups[g][0] if m else self.last_arrival[c][g]

    def chunks(self, n: int) -> Iterator[Tuple[int, int]]:
        """``(chunk, rows of it booked)`` of each chunk the first ``n``
        rows reach (its compute is booked before its first row)."""
        per_chunk = self.rounds * len(self.groups)
        chunks = range(len(self.t_starts) // self.rounds)
        return ((c, min(per_chunk, n - c * per_chunk)) for c in chunks if c * per_chunk <= n)


class TraceLog:
    """Append-only log of collective events with query helpers.  A
    world appends :class:`CollectiveRows` blocks, whose events are built
    on the first read (``len()`` builds nothing), once, in order."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[CollectiveEvent] = []
        # (rows, seq of the row before the first, rows booked), unbuilt
        self._pending: List[Tuple[CollectiveRows, int, int]] = []
        self._length = 0

    def record(self, event: CollectiveEvent) -> None:
        """Append ``event`` if tracing is enabled."""
        if self.enabled:
            self._built().append(event)
            self._length += 1

    def record_rows(self, rows: CollectiveRows, seq0: int, n: int) -> None:
        """Append the first ``n`` rows of ``rows`` as events numbered
        ``seq0 + 1`` on, if tracing is enabled."""
        if self.enabled and n:
            self._pending.append((rows, seq0, n))
            self._length += n

    def _built(self) -> List[CollectiveEvent]:
        """Every event, the pending blocks' built first."""
        for rows, seq0, n in self._pending:
            nonblocking = rows.overlapped_s is not None
            self._events.extend(
                CollectiveEvent(
                    seq0 + 1 + i, rows.kind, rows.labels[g], rows.groups[g],
                    rows.n_nodes[g], rows.nbytes[g], rows.algorithms[g], t_start,
                    rows.costs[g], rows.category, nonblocking,
                )
                for i, (g, t_start, _) in enumerate(rows.cells(n))
            )
        self._pending.clear()
        return self._events

    @property
    def events(self) -> Tuple[CollectiveEvent, ...]:
        """Immutable view of all events."""
        return tuple(self._built())

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[CollectiveEvent]:
        return iter(self._built())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def filter(
        self,
        *,
        kind: Optional[str] = None,
        category: Optional[str] = None,
    ) -> Tuple[CollectiveEvent, ...]:
        """Events matching every provided criterion."""
        out = []
        for ev in self._built():
            if kind is not None and ev.kind != kind:
                continue
            if category is not None and ev.category != category:
                continue
            out.append(ev)
        return tuple(out)

    def summary(self) -> "Dict[Tuple[str, str], Dict[str, float]]":
        """Aggregate by (kind, category): calls, bytes, time."""
        agg: Dict[Tuple[str, str], Dict[str, float]] = {}
        for ev in self._built():
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
