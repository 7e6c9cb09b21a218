"""Unified telemetry: span tracing, metrics, attribution, perf gates.

The observability spine of the reproduction.  One
:class:`~repro.obs.span.SpanTracer` + one
:class:`~repro.obs.metrics.MetricsRegistry` pair — bundled as a
:class:`Telemetry` — can be installed across every layer
(``VirtualWorld`` collectives, solver phases, ensemble steps,
resilience events, campaign waves/jobs), yielding a single span tree
and metric set for a whole campaign.  On top of that sit:

- :mod:`repro.obs.critical` — exact critical-path extraction and the
  ``render_telemetry_report`` attribution table;
- :mod:`repro.obs.export` — byte-stable JSONL span logs and nested
  Chrome/Perfetto traces (pid=member, tid=rank, counter tracks);
- :mod:`repro.obs.gate` — the bench-record schema and the CI
  perf gate;
- :mod:`repro.obs.monitor` — the live monitoring plane for the online
  service: streaming window rollups, burn-rate/anomaly alert rules,
  and automated incident diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.critical import (
    CriticalPath,
    CriticalSegment,
    extract_critical_path,
    render_telemetry_report,
)
from repro.obs.export import (
    export_spans_chrome,
    export_spans_jsonl,
    load_spans_jsonl,
)
from repro.obs.gate import (
    GateFinding,
    GateResult,
    compare_bench_records,
    load_bench_records,
    run_gate,
    write_bench_records,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
)
from repro.obs.monitor import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    IncidentReport,
    ServiceMonitor,
    WindowRollup,
    default_rulebook,
    dump_rulebook,
    export_rollups_jsonl,
    load_rollups_jsonl,
    load_rulebook,
    render_monitor_report,
)
from repro.obs.span import LEAF_KINDS, Span, SpanTracer


@dataclass
class Telemetry:
    """One tracer + one registry, shared across a whole run."""

    tracer: SpanTracer = field(default_factory=SpanTracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def install(self, world) -> None:
        """Install both halves on a virtual world."""
        world.install_telemetry(tracer=self.tracer, metrics=self.metrics)


__all__ = [
    "Telemetry",
    "Span",
    "SpanTracer",
    "LEAF_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "IncidentReport",
    "ServiceMonitor",
    "WindowRollup",
    "default_rulebook",
    "dump_rulebook",
    "export_rollups_jsonl",
    "load_rollups_jsonl",
    "load_rulebook",
    "render_monitor_report",
    "CriticalPath",
    "CriticalSegment",
    "extract_critical_path",
    "render_telemetry_report",
    "export_spans_chrome",
    "export_spans_jsonl",
    "load_spans_jsonl",
    "GateFinding",
    "GateResult",
    "compare_bench_records",
    "load_bench_records",
    "run_gate",
    "write_bench_records",
]
