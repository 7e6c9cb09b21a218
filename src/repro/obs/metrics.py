"""A labelled metrics registry: counters, gauges, histograms.

Replaces the ad-hoc tallies each subsystem grew on its own (trace byte
sums, cache stats dicts, ledger totals) with one registry every layer
writes into and one exporter everything reads from.  Metric identity is
``(name, sorted labels)``; values are plain floats on the simulated
timeline's side — there is no sampling thread, callers update metrics
at the moment they charge the simulated clocks.

Export formats:

- :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition (``# TYPE`` headers, ``name{label="v"} value`` samples,
  ``_bucket``/``_sum``/``_count`` for histograms);
- :meth:`MetricsRegistry.to_dict` — JSON-safe snapshot, byte-stable
  under round-trip (sorted keys), for machine comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro import records
from repro.errors import ReproError

#: Default histogram bucket upper bounds (simulated seconds).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotone accumulator."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ReproError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)

    def max(self, value: float) -> None:
        """Raise the gauge to ``value`` if larger (high-water marks)."""
        self.value = max(self.value, float(value))


class HistogramSnapshot(NamedTuple):
    """Immutable histogram state, the unit of windowed deltas."""

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]
    sum: float
    count: int


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ReproError(f"histogram buckets must strictly increase: {buckets}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.buckets)  # per upper bound, non-cumulative
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.observe_each((value,))

    def observe_each(self, values: Iterable[float]) -> None:
        """Record each of ``values`` in turn: ``sum`` is added up in
        their order, as that many :meth:`observe` calls would."""
        for value in values:
            self.sum += float(value)
            self.count += 1
            for i, ub in enumerate(self.buckets):
                if value <= ub:
                    self.counts[i] += 1
                    break

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for ub, c in zip(self.buckets, self.counts):
            running += c
            out.append((ub, running))
        out.append((float("inf"), self.count))
        return out

    def quantile(self, q: float) -> float:
        """Prometheus-style ``histogram_quantile``: the value below
        which a fraction ``q`` of observations fell, linearly
        interpolated within the bucket that crosses the target rank.

        Matches PromQL semantics at the edges: an empty histogram
        yields ``NaN``; a target rank landing in the +Inf overflow
        bucket yields the highest finite bucket bound (the histogram
        cannot resolve beyond it); the first bucket interpolates from a
        lower bound of zero.
        """
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0 or not self.buckets:
            return float("nan")
        target = q * self.count
        lower, cum = 0.0, 0
        for ub, c in zip(self.buckets, self.counts):
            cum += c
            if cum >= target and c > 0:
                return lower + (ub - lower) * (target - (cum - c)) / c
            lower = ub
        # target sits in the +Inf overflow bucket (or past every
        # finite bound): report the largest finite bound
        return self.buckets[-1]

    # ------------------------------------------------------------------
    # windowed-delta protocol
    # ------------------------------------------------------------------
    def snapshot(self) -> HistogramSnapshot:
        """Immutable copy of the cumulative state for later :meth:`delta`."""
        return HistogramSnapshot(
            self.buckets, tuple(self.counts), self.sum, self.count
        )

    def delta(self, since: HistogramSnapshot) -> "Histogram":
        """The histogram of observations recorded *after* ``since``.

        Bucket counts are subtracted exactly — no re-bucketing of raw
        observations — so quantiles of a window delta are as precise as
        quantiles of the cumulative histogram.
        """
        if since.buckets != self.buckets:
            raise ReproError(
                f"histogram delta across different buckets: "
                f"{since.buckets} vs {self.buckets}"
            )
        out = Histogram(self.buckets)
        out.counts = [c - p for c, p in zip(self.counts, since.counts)]
        if any(c < 0 for c in out.counts) or self.count < since.count:
            raise ReproError("histogram snapshot is ahead of the histogram")
        out.sum = self.sum - since.sum
        out.count = self.count - since.count
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s observations into this histogram, in place.

        The exact inverse of :meth:`delta`: merging every window delta
        back together reproduces the cumulative histogram bit-for-bit
        (bucket counts and totals are integer/float sums, and the
        buckets must match exactly).
        """
        if other.buckets != self.buckets:
            raise ReproError(
                f"cannot merge histograms with different buckets: "
                f"{other.buckets} vs {self.buckets}"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count
        return self

    @classmethod
    def from_state(
        cls,
        buckets: Tuple[float, ...],
        counts: Tuple[int, ...],
        total: float,
        count: int,
    ) -> "Histogram":
        """Rebuild a histogram from exported state (see ``to_dict``)."""
        out = cls(tuple(float(b) for b in buckets))
        if len(counts) != len(out.buckets):
            raise ReproError(
                f"histogram state has {len(counts)} counts for "
                f"{len(out.buckets)} buckets"
            )
        out.counts = [int(c) for c in counts]
        out.sum = float(total)
        out.count = int(count)
        return out


@dataclass(frozen=True)
class _ScalarRow:
    """One counter or gauge series of a snapshot."""

    name: str
    labels: Dict[str, str]
    value: float


@dataclass(frozen=True)
class _HistogramRow:
    """One histogram series of a snapshot."""

    name: str
    labels: Dict[str, str]
    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]
    sum: float
    count: int


@dataclass(frozen=True)
class _Snapshot:
    """:meth:`MetricsRegistry.to_dict`'s document, as the record codec
    dumps and checks it."""

    counters: Tuple[_ScalarRow, ...]
    gauges: Tuple[_ScalarRow, ...]
    histograms: Tuple[_HistogramRow, ...]


class MetricsRegistry:
    """Get-or-create registry of labelled metrics."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        """The counter ``name`` with exactly these labels."""
        key = (name, _label_key(labels))
        got = self._counters.get(key)
        if got is None:
            got = self._counters[key] = Counter()
        return got

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge ``name`` with exactly these labels."""
        key = (name, _label_key(labels))
        got = self._gauges.get(key)
        if got is None:
            got = self._gauges[key] = Gauge()
        return got

    def histogram(
        self,
        name: str,
        *,
        buckets: Optional[Tuple[float, ...]] = None,
        **labels: object,
    ) -> Histogram:
        """The histogram ``name`` with exactly these labels."""
        key = (name, _label_key(labels))
        got = self._histograms.get(key)
        if got is None:
            got = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return got

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def counter_total(self, name: str, **label_filter: object) -> float:
        """Sum of ``name`` counters whose labels match every filter."""
        want = {str(k): str(v) for k, v in label_filter.items()}
        total = 0.0
        for (n, key), c in self._counters.items():
            if n != name:
                continue
            have = dict(key)
            if all(have.get(k) == v for k, v in want.items()):
                total += c.value
        return total

    def histogram_or_none(
        self, name: str, **labels: object
    ) -> Optional[Histogram]:
        """The histogram if it exists — a read that never creates."""
        return self._histograms.get((name, _label_key(labels)))

    def histograms_named(
        self, name: str
    ) -> List[Tuple[Dict[str, str], Histogram]]:
        """Every labelling of histogram ``name``, sorted by labels."""
        out = []
        for (n, key), h in sorted(self._histograms.items()):
            if n == name:
                out.append((dict(key), h))
        return out

    def __iter__(self) -> Iterator[Tuple[str, LabelKey, str, float]]:
        """Yield ``(name, labels, type, value)`` for scalar metrics."""
        for (n, key), c in self._counters.items():
            yield n, key, "counter", c.value
        for (n, key), g in self._gauges.items():
            yield n, key, "gauge", g.value

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot with deterministic ordering."""

        def scalar(table) -> Tuple[_ScalarRow, ...]:
            return tuple(
                _ScalarRow(n, dict(key), m.value)
                for (n, key), m in sorted(table.items())
            )

        return records.dump(
            _Snapshot(
                counters=scalar(self._counters),
                gauges=scalar(self._gauges),
                histograms=tuple(
                    _HistogramRow(
                        n, dict(key), h.buckets, h.counts, h.sum, h.count
                    )
                    for (n, key), h in sorted(self._histograms.items())
                ),
            )
        )

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, object], what: str = "metrics snapshot"
    ) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output; anything else
        is a :class:`~repro.errors.ReproError` naming ``what`` (the
        file, when a caller knows it) and the key.

        Round-trips exactly: ``from_dict(r.to_dict()).to_dict()`` is
        byte-identical to ``r.to_dict()``.  This is what lets the CLI
        interrogate an exported metrics JSON (quantiles, totals)
        without re-running the simulation that produced it.
        """
        snap = records.load(_Snapshot, payload, what=what)
        reg = cls()
        # keyed directly: a label may be called anything in a file
        for row in snap.counters:
            c = reg._counters[(row.name, _label_key(row.labels))] = Counter()
            c.inc(row.value)
        for row in snap.gauges:
            g = reg._gauges[(row.name, _label_key(row.labels))] = Gauge()
            g.set(row.value)
        for row in snap.histograms:
            reg._histograms[(row.name, _label_key(row.labels))] = (
                Histogram.from_state(
                    row.buckets, row.counts, row.sum, row.count
                )
            )
        return reg

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every metric, sorted."""
        lines: List[str] = []
        by_name: Dict[str, List[str]] = {}

        for (n, key), c in sorted(self._counters.items()):
            by_name.setdefault(f"counter {n}", []).append(
                f"{n}{_render_labels(key)} {c.value:g}"
            )
        for (n, key), g in sorted(self._gauges.items()):
            by_name.setdefault(f"gauge {n}", []).append(
                f"{n}{_render_labels(key)} {g.value:g}"
            )
        for (n, key), h in sorted(self._histograms.items()):
            rows = by_name.setdefault(f"histogram {n}", [])
            for ub, cum in h.cumulative():
                le = "+Inf" if ub == float("inf") else f"{ub:g}"
                bucket_key = key + (("le", le),)
                rows.append(f"{n}_bucket{_render_labels(bucket_key)} {cum}")
            rows.append(f"{n}_sum{_render_labels(key)} {h.sum:g}")
            rows.append(f"{n}_count{_render_labels(key)} {h.count}")

        for typed_name in sorted(by_name):
            mtype, name = typed_name.split(" ", 1)
            lines.append(f"# TYPE {name} {mtype}")
            lines.extend(by_name[typed_name])
        return "\n".join(lines) + ("\n" if lines else "")
