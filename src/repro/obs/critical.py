"""Critical-path extraction over a span tree.

The paper's argument is an attribution claim — *where does the
makespan go* — and on a simulated machine it can be answered exactly.
Every leaf span (collective, compute charge, group-wide sync) is a
closed interval on some set of rank clocks; the makespan is the latest
span end.  :func:`extract_critical_path` walks backwards from that
end, at each step following the rank that *determined* when the
current span could run:

- a collective starts when its last participant arrives — the world
  records that rank (``last_arrival``), so the chain hops onto it;
- a compute charge ends on the rank whose clock it pushed furthest.

Between one span's start and its predecessor's end on the chain rank
lies *idle* — time nothing on the critical rank was charged (waits
outside any span).  Idle is surfaced, never smeared: the extracted
segments partition ``[t0, makespan]`` exactly, so the per-category
attribution sums to the makespan by construction — the invariant the
property tests pin down.

Nonblocking collectives (spans with ``nonblocking=True``) coexist in
time with compute spans on the same ranks.  Where a path segment's
interval is covered by *both* a compute span and a nonblocking
collective's cost window on the chain rank, that intersection is
re-labeled :data:`OVERLAPPED` (``"coll_overlapped"``): the time was
simultaneously computation and hidden communication, and smearing it
into either plain category would misstate the other.  The re-labeling
splits segments in place — each instant of ``[t0, makespan]`` still
belongs to exactly one segment, so nothing is double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.span import LEAF_KINDS, Span

#: Category label for unattributed chain time.
IDLE = "idle"

#: Category label for path time that is simultaneously compute and
#: hidden (nonblocking) communication on the chain rank.
OVERLAPPED = "coll_overlapped"

_EPS = 1e-12


@dataclass(frozen=True)
class CriticalSegment:
    """One interval of the critical path."""

    t_start: float
    t_end: float
    category: str  # phase category, or "idle"
    kind: str  # span kind, or "idle"
    name: str
    rank: Optional[int]  # chain rank the interval sits on
    span_id: Optional[int]  # None for idle gaps

    @property
    def duration(self) -> float:
        """Interval length in simulated seconds."""
        return self.t_end - self.t_start


@dataclass
class CriticalPath:
    """The rank-chain accounting for a span tree's makespan."""

    segments: List[CriticalSegment]  # ascending, contiguous
    t0: float
    makespan: float

    @property
    def total_s(self) -> float:
        """Exact path duration: the segments span ``[t0, makespan]``."""
        if not self.segments:
            return 0.0
        return self.segments[-1].t_end - self.segments[0].t_start

    def by_category(self) -> Dict[str, float]:
        """Seconds per category along the path (idle included)."""
        out: Dict[str, float] = {}
        for seg in self.segments:
            cat = seg.category or "uncategorized"
            out[cat] = out.get(cat, 0.0) + seg.duration
        return out

    @property
    def idle_s(self) -> float:
        """Total unattributed chain time."""
        return sum(s.duration for s in self.segments if s.span_id is None)

    @property
    def attributed_fraction(self) -> float:
        """Share of the path carried by named phase categories."""
        if self.total_s <= 0:
            return 1.0
        named = sum(
            s.duration
            for s in self.segments
            if s.span_id is not None and s.category not in ("", "uncategorized")
        )
        return named / self.total_s

    def top_stalls(self, n: int = 5) -> List[CriticalSegment]:
        """Largest idle gaps on the path, longest first."""
        gaps = [s for s in self.segments if s.span_id is None and s.duration > 0]
        gaps.sort(key=lambda s: (-s.duration, s.t_start))
        return gaps[:n]


def _windows_by_rank(
    leaves: Sequence[Span], want_nonblocking: bool
) -> Dict[int, List[Tuple[float, float]]]:
    """Per rank: intervals of nonblocking-collective cost windows
    (``want_nonblocking``) or of compute spans (otherwise)."""
    wins: Dict[int, List[Tuple[float, float]]] = {}
    for s in leaves:
        if want_nonblocking:
            if s.kind != "collective" or not s.attrs.get("nonblocking"):
                continue
        elif s.kind != "compute":
            continue
        for r in s.ranks:
            wins.setdefault(r, []).append((s.t_start, s.t_end))
    return wins


def _split_overlapped(
    seg: CriticalSegment, windows: Sequence[Tuple[float, float]]
) -> List[CriticalSegment]:
    """Split ``seg`` where ``windows`` cover it; intersections become
    :data:`OVERLAPPED`.  The pieces tile ``[seg.t_start, seg.t_end]``
    exactly — endpoints are carried through, never re-derived."""
    clipped = []
    for lo, hi in windows:
        lo, hi = max(lo, seg.t_start), min(hi, seg.t_end)
        if hi > lo + _EPS:
            clipped.append((lo, hi))
    if not clipped:
        return [seg]
    clipped.sort()
    merged = [clipped[0]]
    for lo, hi in clipped[1:]:
        if lo <= merged[-1][1] + _EPS:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    out: List[CriticalSegment] = []
    t = seg.t_start
    for lo, hi in merged:
        if lo > t + _EPS:
            out.append(replace(seg, t_start=t, t_end=lo))
            t = lo
        out.append(replace(seg, t_start=t, t_end=hi, category=OVERLAPPED))
        t = hi
    if seg.t_end > t + _EPS:
        out.append(replace(seg, t_start=t, t_end=seg.t_end))
    else:
        out[-1] = replace(out[-1], t_end=seg.t_end)
    return out


def _chain_rank(span: Span) -> Optional[int]:
    """The rank whose clock pinned this span's placement."""
    last = span.attrs.get("last_arrival")
    if last is not None:
        return int(last)  # type: ignore[arg-type]
    if span.ranks:
        return span.ranks[0]
    return None


def extract_critical_path(spans: Sequence[Span]) -> CriticalPath:
    """Extract the critical rank-chain of a span tree.

    Only leaf spans (:data:`~repro.obs.span.LEAF_KINDS`) participate;
    interior structural spans merely aggregate them.  The returned
    segments are contiguous and partition ``[t0, makespan]`` (``t0`` the
    timeline's origin, 0.0), so their durations sum to the
    makespan exactly (up to float telescoping) — and removing any span
    *not* on the path leaves the extraction unchanged.

    Path intervals covered by both a compute span and a nonblocking
    collective's cost window on the chain rank are re-labeled
    :data:`OVERLAPPED` (see module docstring); the partition invariant
    is preserved through the split.
    """
    t0 = 0.0
    leaves = [s for s in spans if s.kind in LEAF_KINDS and s.duration > 0.0]
    if not leaves:
        raise ReproError("no leaf spans to extract a critical path from")
    makespan = max(s.t_end for s in leaves)
    used: set = set()

    # index: rank -> spans touching it, and the global list, both by
    # (t_end, t_start, -span_id) so "latest, then deterministic" picks
    by_rank: Dict[int, List[Span]] = {}
    for s in leaves:
        for r in s.ranks:
            by_rank.setdefault(r, []).append(s)

    def pick(cands: List[Span], at_or_before: float) -> Optional[Span]:
        best: Optional[Span] = None
        for s in cands:
            if s.span_id in used or s.t_end > at_or_before + _EPS:
                continue
            if (
                best is None
                or s.t_end > best.t_end + _EPS
                or (
                    abs(s.t_end - best.t_end) <= _EPS
                    and (
                        s.t_start > best.t_start + _EPS
                        or (
                            abs(s.t_start - best.t_start) <= _EPS
                            and s.span_id < best.span_id
                        )
                    )
                )
            ):
                best = s
        return best

    segments: List[CriticalSegment] = []
    current = pick(leaves, makespan)
    assert current is not None  # the max-t_end span always qualifies
    t = makespan
    while True:
        used.add(current.span_id)
        # trailing gap between this span's end and the chain time
        if t > current.t_end + _EPS:
            rank = _chain_rank(current)
            segments.append(
                CriticalSegment(
                    t_start=current.t_end,
                    t_end=t,
                    category=IDLE,
                    kind=IDLE,
                    name=IDLE,
                    rank=rank,
                    span_id=None,
                )
            )
            t = current.t_end
        seg_start = max(current.t_start, t0)
        segments.append(
            CriticalSegment(
                t_start=seg_start,
                t_end=t,
                category=current.category or "uncategorized",
                kind=current.kind,
                name=current.name,
                rank=_chain_rank(current),
                span_id=current.span_id,
            )
        )
        t = seg_start
        if t <= t0 + _EPS:
            break
        rank = _chain_rank(current)
        cands = by_rank.get(rank, leaves) if rank is not None else leaves
        nxt = pick(cands, t)
        if nxt is None and rank is not None:
            # nothing earlier on the chain rank: fall back to any rank
            nxt = pick(leaves, t)
        if nxt is None:
            segments.append(
                CriticalSegment(
                    t_start=t0,
                    t_end=t,
                    category=IDLE,
                    kind=IDLE,
                    name=IDLE,
                    rank=rank,
                    span_id=None,
                )
            )
            break
        current = nxt
    segments.reverse()
    nb_ids = {
        s.span_id
        for s in leaves
        if s.kind == "collective" and s.attrs.get("nonblocking")
    }
    if nb_ids:
        coll_wins = _windows_by_rank(leaves, want_nonblocking=True)
        comp_wins = _windows_by_rank(leaves, want_nonblocking=False)
        split: List[CriticalSegment] = []
        for seg in segments:
            if seg.span_id is None or seg.rank is None:
                split.append(seg)
            elif seg.kind == "compute":
                split.extend(
                    _split_overlapped(seg, coll_wins.get(seg.rank, ()))
                )
            elif seg.span_id in nb_ids:
                split.extend(
                    _split_overlapped(seg, comp_wins.get(seg.rank, ()))
                )
            else:
                split.append(seg)
        segments = split
    return CriticalPath(segments=segments, t0=t0, makespan=makespan)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def render_telemetry_report(
    spans: Sequence[Span],
    *,
    metrics=None,
    top_stalls: int = 5,
) -> str:
    """The whole-run attribution table: critical path + top stalls.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) adds
    the registry's headline counters (bytes moved, imposed wait) so
    the one report answers both *where the time went* and *what moved*.
    """
    path = extract_critical_path(spans)
    lines = [
        f"telemetry — {len(spans)} span(s), makespan "
        f"{path.makespan:.6f} s, critical path "
        f"{path.total_s:.6f} s in {len(path.segments)} segment(s)",
        f"attributed to named phases: {path.attributed_fraction:.1%} "
        f"(idle {path.idle_s:.6f} s)",
        f"{'category':<22s} {'seconds':>12s} {'share':>8s}",
    ]
    total = path.total_s or 1.0
    for cat, secs in sorted(
        path.by_category().items(), key=lambda kv: -kv[1]
    ):
        lines.append(f"{cat:<22s} {secs:>12.6f} {secs / total:>8.1%}")
    stalls = path.top_stalls(top_stalls)
    if stalls:
        lines.append("top stalls (idle on the critical rank):")
        for s in stalls:
            where = f"rank {s.rank}" if s.rank is not None else "?"
            lines.append(
                f"  {s.t_start:>12.6f} s  +{s.duration:.6f} s  on {where}"
            )
    if metrics is not None:
        total_bytes = metrics.counter_total("vmpi_collective_bytes_total")
        imposed = metrics.counter_total("vmpi_imposed_wait_seconds_total")
        if total_bytes or imposed:
            lines.append(
                f"collective bytes {int(total_bytes)} B, imposed wait "
                f"{imposed:.6f} s (registry totals)"
            )
    return "\n".join(lines)
