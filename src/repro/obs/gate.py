"""The perf-regression gate: bench records vs committed baselines.

Every ``bench_*.py`` smoke run writes one machine-readable record per
bench (via the shared ``--json`` writer in ``benchmarks/conftest.py``)
into a bench-record file::

    {"format": "repro-bench-v1",
     "records": {"figure2_headline": {"xgyro_wall_s": 0.81, ...}, ...}}

CI compares each lane's fresh file against that lane's baseline under
``benchmarks/baselines/`` with a relative tolerance band per metric.
Every record has one owner: the autotune, service, overlap, chaos and
monitor lanes' files hold their own bench's record, ``BENCH_PR5.json``
those of every other bench (the whole-suite run reports the per-lane
benches as ``new``, which passes).
The virtual machine is deterministic, so the band exists to absorb
*intentional* model changes, not noise: a metric drifting beyond it in
the *worse* direction fails the gate; drifting in the *better*
direction is reported as an improvement (re-baseline to lock it in).

Metric direction is inferred from the name: anything mentioning
``speedup``/``throughput``/``saved``/``hit_rate``/``reduction``/
``utilisation``/``efficiency`` is higher-is-better; everything else
(walls, makespans, fractions, overheads, byte counts) is
lower-is-better.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Union

from repro.errors import ReproError
from repro.records import dump, load_json, write_json

BENCH_FORMAT = "repro-bench-v1"


@dataclass(frozen=True)
class _BenchFile:
    """A bench-record document, as the record codec checks it."""

    records: Dict[str, Dict[str, float]]

    record_tag = BENCH_FORMAT

#: Substrings marking a metric as higher-is-better.
HIGHER_IS_BETTER = (
    "speedup",
    "throughput",
    "goodput",
    "attainment",
    "saved",
    "savings",
    "hit_rate",
    "reduction",
    "utilisation",
    "utilization",
    "efficiency",
)


def metric_direction(name: str) -> int:
    """+1 when larger values are better, -1 when smaller are."""
    low = name.lower()
    return 1 if any(tag in low for tag in HIGHER_IS_BETTER) else -1


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
    verdict: str  # "ok" | "improved" | "regressed" | "missing" | "new"

    @property
    def rel_change(self) -> float:
        """Signed relative change vs the baseline (0 when baseline 0)."""
        if self.baseline == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass
class GateResult:
    """Outcome of comparing a bench-record file against a baseline."""

    findings: List[GateFinding]
    tolerance: float

    @property
    def regressions(self) -> List[GateFinding]:
        """Findings that fail the gate."""
        return [f for f in self.findings if f.verdict in ("regressed", "missing")]

    @property
    def ok(self) -> bool:
        """True when no metric regressed and none went missing."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable gate table, worst news first."""
        order = {"regressed": 0, "missing": 1, "improved": 2, "new": 3, "ok": 4}
        rows = sorted(
            self.findings, key=lambda f: (order[f.verdict], f.bench, f.metric)
        )
        lines = [
            f"perf gate — tolerance ±{self.tolerance:.0%}, "
            f"{len(self.findings)} metric(s), "
            f"{len(self.regressions)} regression(s)",
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
    *,
    tolerance: float = 0.05,
) -> GateResult:
    """Gate ``current`` against ``baseline`` with a relative band.

    Baseline metrics absent from ``current`` are *failures* (a bench
    silently stopped reporting is exactly the rot the gate exists to
    catch); current metrics absent from the baseline are reported as
    ``new`` and pass (commit a refreshed baseline to start tracking
    them).
    """
    if tolerance < 0:
        raise ReproError(f"tolerance must be >= 0, got {tolerance}")
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
            scale = abs(base_val) if base_val != 0.0 else 1.0
            rel = (cur_val - base_val) / scale
            worse = rel * metric_direction(metric) < -tolerance
            better = rel * metric_direction(metric) > tolerance
            findings.append(
                GateFinding(
                    bench,
                    metric,
                    base_val,
                    cur_val,
                    "regressed" if worse else "improved" if better else "ok",
                )
            )
    for bench, cur_metrics in sorted(current.items()):
        base_metrics = baseline.get(bench, {})
        for metric, cur_val in sorted(cur_metrics.items()):
            if metric not in base_metrics:
                findings.append(
                    GateFinding(bench, metric, float("nan"), cur_val, "new")
                )
    return GateResult(findings=findings, tolerance=tolerance)


def run_gate(
    current_path: Union[str, Path],
    baseline_path: Union[str, Path],
    *,
    tolerance: float = 0.05,
) -> GateResult:
    """Load both record files and compare (the CLI/CI entry point)."""
    return compare_bench_records(
        load_bench_records(current_path),
        load_bench_records(baseline_path),
        tolerance=tolerance,
    )
