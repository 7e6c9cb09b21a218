"""The perf gate: bench records vs the committed baseline.

Every ``bench_*.py`` writes one machine-readable record per bench (via
the shared ``--json`` writer in ``benchmarks/conftest.py``) into a
bench-record file::

    {"format": "repro-bench-v1",
     "records": {"figure2_headline": {"xgyro_wall_s": 0.81, ...}, ...}}

CI runs the whole suite once (``pytest benchmarks --smoke --json``) and
compares that file against the one baseline,
``benchmarks/baselines/BENCH.json``.  The virtual machine is
deterministic, so every metric is judged two-sided: a relative change
beyond :data:`BAND` in either direction is ``drifted``, a baseline
metric the run did not write is ``missing`` and one the baseline lacks
is ``new``; each of the three fails.  A change that moves a figure on
purpose re-baselines it in the same commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Union

from repro.errors import ReproError
from repro.records import dump, load_json, write_json

BENCH_FORMAT = "repro-bench-v1"

#: Relative change either way beyond which a metric fails the gate.
BAND = 0.05


@dataclass(frozen=True)
class _BenchFile:
    """A bench-record document, as the record codec checks it."""

    records: Dict[str, Dict[str, float]]

    record_tag = BENCH_FORMAT


def write_bench_records(
    records: Mapping[str, Mapping[str, float]], path: Union[str, Path]
) -> int:
    """Write a bench-record file (sorted, byte-stable); returns count."""
    doc = _BenchFile(
        {
            name: {k: float(v) for k, v in metrics.items()}
            for name, metrics in records.items()
        }
    )
    write_json(path, dump(doc), indent=1)
    return len(records)


def load_bench_records(path: Union[str, Path]) -> Dict[str, Dict[str, float]]:
    """Load a bench-record file; anything but a ``repro-bench-v1``
    document of ``{bench: {metric: number}}`` is a
    :class:`~repro.errors.ReproError` naming file and key."""
    return load_json(_BenchFile, path, error=ReproError).records


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GateFinding:
    """One per-metric verdict of a gate comparison."""

    bench: str
    metric: str
    baseline: float
    current: float
    verdict: str  # "ok" | "drifted" | "missing" | "new"

    @property
    def rel_change(self) -> float:
        """Signed relative change vs the baseline (vs 1 when the
        baseline is 0)."""
        return (self.current - self.baseline) / (abs(self.baseline) or 1.0)


@dataclass
class GateResult:
    """Outcome of comparing a bench-record file against a baseline."""

    findings: List[GateFinding]

    @property
    def failures(self) -> List[GateFinding]:
        """Findings that fail the gate: every one but ``ok``."""
        return [f for f in self.findings if f.verdict != "ok"]

    @property
    def ok(self) -> bool:
        """True when every metric is within the band on both sides."""
        return not self.failures

    def render(self) -> str:
        """Human-readable gate table, failures first."""
        order = {"drifted": 0, "missing": 1, "new": 2, "ok": 3}
        rows = sorted(
            self.findings, key=lambda f: (order[f.verdict], f.bench, f.metric)
        )
        lines = [
            f"perf gate — band ±{BAND:.0%} either way, "
            f"{len(self.findings)} metric(s), "
            f"{len(self.failures)} failure(s)",
            f"{'bench':<28s} {'metric':<28s} {'baseline':>12s} "
            f"{'current':>12s} {'change':>8s}  verdict",
        ]
        for f in rows:
            change = (
                "n/a"
                if f.verdict in ("missing", "new")
                else f"{f.rel_change:+.1%}"
            )
            lines.append(
                f"{f.bench:<28s} {f.metric:<28s} {f.baseline:>12.6g} "
                f"{f.current:>12.6g} {change:>8s}  {f.verdict}"
            )
        return "\n".join(lines)


def compare_bench_records(
    current: Mapping[str, Mapping[str, float]],
    baseline: Mapping[str, Mapping[str, float]],
) -> GateResult:
    """Gate ``current`` against ``baseline``, metric by metric.

    A value more than :data:`BAND` away from its baseline either way
    (a NaN too) is ``drifted``; a baseline metric absent from
    ``current`` is ``missing`` (a bench that silently stopped reporting
    is the rot the gate exists to catch), and a current metric absent
    from the baseline is ``new`` (an untracked figure).  All three fail.
    """
    findings: List[GateFinding] = []
    for bench, base_metrics in sorted(baseline.items()):
        cur_metrics = current.get(bench, {})
        for metric, base_val in sorted(base_metrics.items()):
            if metric not in cur_metrics:
                findings.append(
                    GateFinding(bench, metric, base_val, float("nan"), "missing")
                )
                continue
            cur_val = cur_metrics[metric]
            within = abs(cur_val - base_val) <= BAND * (abs(base_val) or 1.0)
            findings.append(
                GateFinding(
                    bench, metric, base_val, cur_val, "ok" if within else "drifted"
                )
            )
    for bench, cur_metrics in sorted(current.items()):
        base_metrics = baseline.get(bench, {})
        for metric, cur_val in sorted(cur_metrics.items()):
            if metric not in base_metrics:
                findings.append(
                    GateFinding(bench, metric, float("nan"), cur_val, "new")
                )
    return GateResult(findings)


def run_gate(
    current_path: Union[str, Path], baseline_path: Union[str, Path]
) -> GateResult:
    """Load both record files and compare (the CLI/CI entry point)."""
    return compare_bench_records(
        load_bench_records(current_path), load_bench_records(baseline_path)
    )
