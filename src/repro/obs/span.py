"""Hierarchical span tracing over the simulated clock.

A :class:`Span` is one timed region of a run — a campaign wave, a job,
an ensemble step, a member phase, a single collective — positioned on
the *simulated* timeline and linked to its parent, so one tree covers
a whole campaign down to individual AllReduces:

    campaign
      wave 0
        job000
          step 0
            xgyro.m0.nl03c.str           (phase)
              allreduce [....comm1.g0]   (collective leaf)
            xgyro.coll                   (phase)
              alltoall [xgyro.coll.g0]   (collective leaf)

Spans are *not* wall-clock: ``t_start``/``duration`` are simulated
seconds read from the :class:`~repro.vmpi.world.VirtualWorld` clocks
(max over the span's rank set), which is what makes the critical-path
arithmetic in :mod:`repro.obs.critical` exact rather than sampled.

``SpanTracer.time_offset`` shifts recorded times into a larger frame:
the campaign runner dispatches each job in its own world (clock starts
at 0) but sets the offset to the wave's campaign-clock start, so job
spans land at campaign-absolute times and the tree stays one timeline.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.records import Record

#: Span kinds whose intervals are direct clock charges — the leaves the
#: critical-path extractor chains over.  Everything else (phase, step,
#: member, job, wave, campaign) is structural.
LEAF_KINDS = ("collective", "compute", "sync")


@dataclass(frozen=True)
class Span(Record):
    """One completed timed region of the simulated timeline (one line
    of a ``repro-spans-v1`` log through the record codec).

    Attributes
    ----------
    span_id:
        Unique id within the tracer (creation order).
    name:
        Human-readable label (``"allreduce [nl03c.comm1.g0]"``).
    kind:
        Structural role: ``campaign``/``wave``/``job``/``member``/
        ``step``/``phase`` for interior spans, one of
        :data:`LEAF_KINDS` (plus ``checkpoint``/``recovery``/
        ``migration`` markers) for leaves.
    t_start / duration:
        Simulated seconds (offset-adjusted; see
        :attr:`SpanTracer.time_offset`).
    parent:
        ``span_id`` of the enclosing span, or ``None`` for roots.
    category:
        Phase category active when the span was charged ("" if none).
    ranks:
        World ranks the span covers (empty for scheduler-level spans).
    attrs:
        Free-form metadata (bytes, communicator label, last-arrival
        rank, ...). Values must be JSON-safe.
    """

    span_id: int
    name: str
    kind: str
    t_start: float
    duration: float
    parent: Optional[int] = None
    category: str = ""
    ranks: Tuple[int, ...] = ()
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def t_end(self) -> float:
        """End of the span on the simulated timeline."""
        return self.t_start + self.duration


def _rank_tuple(ranks: Sequence[int]) -> Tuple[int, ...]:
    """``ranks`` as a tuple of ints; a tuple is taken as one already."""
    return ranks if type(ranks) is tuple else tuple(int(r) for r in ranks)


class SpanTracer:
    """Builds one span tree across worlds, runners and schedulers.

    Interior spans are opened/closed with :meth:`begin`/:meth:`end` (or
    the :meth:`span` context manager, which reads a clock callable at
    entry and exit); completed leaves are appended with :meth:`record`,
    a world's collective leaves a block at a time with
    :meth:`record_rows`.  Parentage follows the open-span stack unless
    given explicitly.
    """

    def __init__(self, *, time_offset: float = 0.0) -> None:
        #: Added to every recorded time — the campaign runner points
        #: this at the wave's campaign-clock start before dispatching a
        #: job so the job world's local times land absolutely.
        self.time_offset = float(time_offset)
        self._spans: List[Span] = []
        self._stack: List[Tuple[int, str, str, float, str, Tuple[int, ...], Dict[str, object]]] = []
        self._next_id = 0
        # (rows, rows booked, first span_id, parent, time_offset), unbuilt
        self._pending: List[Tuple[object, int, int, Optional[int], float]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def current_id(self) -> Optional[int]:
        """``span_id`` of the innermost open span (``None`` at root)."""
        return self._stack[-1][0] if self._stack else None

    def begin(
        self,
        name: str,
        kind: str,
        t_start: float,
        *,
        category: str = "",
        ranks: Sequence[int] = (),
        **attrs: object,
    ) -> int:
        """Open a span at ``t_start`` (pre-offset); returns its id."""
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(
            (
                span_id,
                name,
                kind,
                t_start + self.time_offset,
                category,
                _rank_tuple(ranks),
                attrs,
            )
        )
        return span_id

    def end(self, t_end: float) -> Span:
        """Close the innermost open span at ``t_end`` (pre-offset)."""
        if not self._stack:
            raise ReproError("SpanTracer.end() with no open span")
        span_id, name, kind, t0, category, ranks, attrs = self._stack.pop()
        span = Span(
            span_id=span_id,
            name=name,
            kind=kind,
            t_start=t0,
            duration=max(0.0, t_end + self.time_offset - t0),
            parent=self._stack[-1][0] if self._stack else None,
            category=category,
            ranks=ranks,
            attrs=attrs,
        )
        self._spans.append(span)
        return span

    def record(
        self,
        name: str,
        kind: str,
        t_start: float,
        duration: float,
        *,
        category: str = "",
        ranks: Sequence[int] = (),
        parent: Optional[int] = "stack",  # type: ignore[assignment]
        **attrs: object,
    ) -> Span:
        """Append an already-completed (leaf) span.

        ``parent`` defaults to the innermost open span; pass ``None``
        to force a root.
        """
        if parent == "stack":
            parent = self.current_id
        span_id = self._next_id
        self._next_id += 1
        span = Span(
            span_id=span_id,
            name=name,
            kind=kind,
            t_start=t_start + self.time_offset,
            duration=float(duration),
            parent=parent,
            category=category,
            ranks=_rank_tuple(ranks),
            attrs=attrs,
        )
        self._spans.append(span)
        return span

    def record_rows(self, rows, n: int) -> None:
        """Append the first ``n`` rows of a world's
        :class:`~repro.vmpi.tracer.CollectiveRows` as collective leaves
        under the innermost open span, ids in row order.  The block is
        kept with its first id, its parent and the current
        :attr:`time_offset`; its spans are built on the first read."""
        if n:
            parent, offset = self.current_id, self.time_offset
            self._pending.append((rows, n, self._next_id, parent, offset))
            self._next_id += n

    def _built(self) -> List[Span]:
        """Every completed span (not in id order), the pending blocks'
        built first."""
        for rows, n, first_id, parent, offset in self._pending:
            overlap = (
                {} if rows.overlapped_s is None
                else {"nonblocking": True, "overlapped_s": rows.overlapped_s}
            )
            self._spans.extend(
                Span(
                    first_id + i, f"{rows.kind} [{rows.labels[g]}]", "collective",
                    t_start + offset, float(rows.costs[g]), parent, rows.category,
                    rows.groups[g],
                    {"nbytes": rows.nbytes[g], "comm": rows.labels[g],
                     "last_arrival": last_arrival, **overlap},
                )
                for i, (g, t_start, last_arrival) in enumerate(rows.cells(n))
            )
        self._pending.clear()
        return self._spans

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        kind: str,
        clock: Callable[[], float],
        *,
        category: str = "",
        ranks: Sequence[int] = (),
        **attrs: object,
    ) -> Iterator[int]:
        """Scope a span over ``clock()`` readings at entry and exit."""
        span_id = self.begin(
            name, kind, clock(), category=category, ranks=ranks, **attrs
        )
        try:
            yield span_id
        finally:
            self.end(clock())

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        """Completed spans in ``span_id`` order."""
        return tuple(sorted(self._built(), key=lambda s: s.span_id))

    def __len__(self) -> int:
        # every id handed out names a completed span or an open one
        return self._next_id - len(self._stack)

    def open_spans(self, t_now: float) -> Tuple[Span, ...]:
        """The live view: still-open spans synthesised as of ``t_now``.

        Each entry on the open stack becomes a :class:`Span` whose
        duration runs to ``t_now`` (pre-offset, like :meth:`end`) and
        whose ``attrs`` carry ``open: True``.  Nothing is closed or
        recorded — this is a pure read, outermost first, for live
        consumers (the monitoring plane's incident diagnosis) that
        must inspect in-flight work without perturbing the tree.
        """
        out: List[Span] = []
        parent: Optional[int] = None
        for span_id, name, kind, t0, category, ranks, attrs in self._stack:
            out.append(
                Span(
                    span_id=span_id,
                    name=name,
                    kind=kind,
                    t_start=t0,
                    duration=max(0.0, t_now + self.time_offset - t0),
                    parent=parent,
                    category=category,
                    ranks=ranks,
                    attrs={**attrs, "open": True},
                )
            )
            parent = span_id
        return tuple(out)
