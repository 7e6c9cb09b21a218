"""Trace export: the lossless ``repro-trace-v1`` JSON event list.

``export_trace_json`` / ``load_trace_json`` round-trip the raw event
list — the interchange format ``repro check-trace`` lints and replays.
The visual timeline (Chrome / Perfetto, one lane per ensemble member)
is :func:`repro.obs.export.export_spans_chrome`: every collective is a
leaf of the span tree, so the span exporter draws it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple, Union

from repro import records
from repro.errors import ReproError
from repro.vmpi.tracer import CollectiveEvent, TraceLog

#: Format tag of a trace file.
TRACE_FORMAT = "repro-trace-v1"


@dataclass(frozen=True)
class _TraceFile:
    """A trace document, as the record codec dumps and checks it."""

    events: Tuple[CollectiveEvent, ...]

    record_tag = TRACE_FORMAT


def export_trace_json(trace: TraceLog, path: Union[str, Path]) -> int:
    """Write the raw event list as JSON; returns the event count.

    Lossless: ``load_trace_json`` reconstructs the exact
    :class:`~repro.vmpi.tracer.CollectiveEvent` sequence.
    """
    doc = _TraceFile(tuple(trace))
    records.write_json(path, records.dump(doc), indent=1, sort_keys=False)
    return len(doc.events)


def load_trace_json(path: Union[str, Path]) -> List[CollectiveEvent]:
    """Load an event list saved by :func:`export_trace_json`; anything
    else is a :class:`~repro.errors.ReproError` naming file and key."""
    return list(records.load_json(_TraceFile, path, error=ReproError).events)
