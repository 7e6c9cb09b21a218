"""Trace export: the lossless ``repro-trace-v1`` JSON event list.

``export_trace_json`` / ``load_trace_json`` round-trip the raw event
list — the interchange format ``repro check-trace`` lints and replays.
The visual timeline (Chrome / Perfetto, one lane per ensemble member)
is :func:`repro.obs.export.export_spans_chrome`: every collective is a
leaf of the span tree, so the span exporter draws it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro.vmpi.tracer import CollectiveEvent, TraceLog


def export_trace_json(trace: TraceLog, path: Union[str, Path]) -> int:
    """Write the raw event list as JSON; returns the event count.

    Lossless: ``load_trace_json`` reconstructs the exact
    :class:`~repro.vmpi.tracer.CollectiveEvent` sequence.
    """
    events = [ev.to_dict() for ev in trace]
    Path(path).write_text(
        json.dumps({"format": "repro-trace-v1", "events": events}, indent=1)
        + "\n"
    )
    return len(events)


def load_trace_json(path: Union[str, Path]) -> List[CollectiveEvent]:
    """Load an event list saved by :func:`export_trace_json`."""
    doc = json.loads(Path(path).read_text())
    raw = doc["events"] if isinstance(doc, dict) else doc
    return [CollectiveEvent.from_dict(d) for d in raw]
