"""Span-tree export: JSONL event log and nested Chrome/Perfetto JSON.

``export_spans_jsonl``/``load_spans_jsonl`` are the byte-stable
interchange pair: exporting a loaded file reproduces it byte for byte
(sorted keys, fixed separators, one span per line), which is what lets
CI artifacts be diffed and goldens be committed.

``export_spans_chrome`` writes the span *tree* as a Perfetto-loadable
trace: ``pid`` is the ensemble member (named via process-name metadata
events so member overlap is visible as parallel process lanes),
``tid`` is the world rank, and a counter track of collective bytes in
flight is derived from the leaf spans.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro import records
from repro.errors import ReproError
from repro.obs.span import Span

#: Format tag on the header line of a span log.
SPANS_FORMAT = "repro-spans-v1"


def export_spans_jsonl(spans: Sequence[Span], path: Union[str, Path]) -> int:
    """Write one JSON object per line (header first); returns span count."""
    records.write_jsonl(
        path,
        (s.to_dict() for s in sorted(spans, key=lambda s: s.span_id)),
        tag=SPANS_FORMAT,
    )
    return len(spans)


def load_spans_jsonl(path: Union[str, Path]) -> List[Span]:
    """Inverse of :func:`export_spans_jsonl`; anything else is a
    :class:`~repro.errors.ReproError` naming file, line and key."""
    return records.load_jsonl(Span, path, tag=SPANS_FORMAT, error=ReproError)


# ----------------------------------------------------------------------
def _member_of_span(span: Span, by_id: Dict[int, Span]) -> Optional[int]:
    """Ensemble member owning a span: its own attr, or an ancestor's."""
    s: Optional[Span] = span
    while s is not None:
        m = s.attrs.get("member")
        if m is not None:
            return int(m)  # type: ignore[arg-type]
        s = by_id.get(s.parent) if s.parent is not None else None
    return None


def export_spans_chrome(
    spans: Sequence[Span],
    path: Union[str, Path],
) -> int:
    """Write the span tree as Chrome trace-event JSON; returns span count.

    One complete ("X") event per (span, rank) — rankless scheduler
    spans land on tid 0 — with ``pid`` the owning ensemble member
    (+1; pid 0 is the ensemble/scheduler lane), named through
    process-name metadata events, then the ``bytes_in_flight`` counter
    track (sum of concurrently-active collective payloads).
    """
    by_id = {s.span_id: s for s in spans}
    events: List[Dict[str, object]] = []
    pids: Dict[int, str] = {}
    for s in sorted(spans, key=lambda s: s.span_id):
        member = _member_of_span(s, by_id)
        pid = 0 if member is None else member + 1
        if pid not in pids:
            pids[pid] = "ensemble" if pid == 0 else f"member {member}"
        for tid in s.ranks or (0,):
            events.append(
                {
                    "name": s.name,
                    "cat": s.kind,
                    "ph": "X",
                    "ts": s.t_start * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {"category": s.category, **s.attrs},
                }
            )
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": name},
        }
        for pid, name in sorted(pids.items())
    ]
    events.extend(_counter_events(spans))
    Path(path).write_text(
        json.dumps({"traceEvents": meta + events, "displayTimeUnit": "ms"})
    )
    return len(spans)


def _counter_events(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """The bytes-in-flight counter track."""
    events: List[Dict[str, object]] = []
    # bytes in flight: +nbytes at each collective start, -nbytes at end
    edges: List[tuple] = []
    for s in spans:
        nbytes = s.attrs.get("nbytes")
        if s.kind == "collective" and nbytes:
            edges.append((s.t_start, int(nbytes)))  # type: ignore[arg-type]
            edges.append((s.t_end, -int(nbytes)))  # type: ignore[arg-type]
    edges.sort()
    in_flight = 0
    for t, delta in edges:
        in_flight += delta
        events.append(
            {
                "name": "bytes_in_flight",
                "ph": "C",
                "ts": t * 1e6,
                "pid": 0,
                "args": {"bytes": in_flight},
            }
        )
    return events
