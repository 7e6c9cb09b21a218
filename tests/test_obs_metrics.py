"""MetricsRegistry semantics and exporters."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.obs import Telemetry
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.vmpi.communicator import Communicator


class TestRegistry:
    def test_counter_identity_is_name_plus_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits", kind="a").inc()
        reg.counter("hits", kind="a").inc(2.0)
        reg.counter("hits", kind="b").inc()
        assert reg.counter("hits", kind="a").value == 3.0
        assert reg.counter_total("hits") == 4.0
        assert reg.counter_total("hits", kind="b") == 1.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ReproError):
            MetricsRegistry().counter("x").inc(-1.0)

    def test_gauge_set_and_max(self):
        g = MetricsRegistry().gauge("hwm")
        g.set(5.0)
        g.max(3.0)
        assert g.value == 5.0
        g.max(9.0)
        assert g.value == 9.0

    def test_histogram_buckets_and_cumulative(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)
        assert h.cumulative() == [
            (1.0, 1), (2.0, 2), (4.0, 3), (float("inf"), 4)
        ]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ReproError):
            Histogram(buckets=(2.0, 1.0))


class TestExport:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("bytes_total", comm="g0").inc(100)
        reg.gauge("depth").set(2)
        reg.histogram("cost", buckets=(0.1, 1.0)).observe(0.05)
        return reg

    def test_prometheus_text_shape(self):
        text = self._populated().render_prometheus()
        assert '# TYPE bytes_total counter' in text
        assert 'bytes_total{comm="g0"} 100' in text
        assert '# TYPE depth gauge' in text
        assert 'cost_bucket{le="+Inf"} 1' in text
        assert "cost_sum" in text and "cost_count" in text

    def test_to_dict_is_json_safe_and_stable(self):
        reg = self._populated()
        d1 = json.dumps(reg.to_dict(), sort_keys=True)
        d2 = json.dumps(reg.to_dict(), sort_keys=True)
        assert d1 == d2
        assert json.loads(d1)["counters"][0]["name"] == "bytes_total"


class TestWorldMetrics:
    def test_collective_metrics_accumulate(self, small_world):
        tele = Telemetry()
        tele.install(small_world)
        comm = Communicator(small_world, range(4), label="m.g0")
        data = {r: np.ones(16) for r in range(4)}
        comm.allreduce(data)
        comm.allreduce(data)
        reg = tele.metrics
        assert reg.counter_total("vmpi_collectives_total", kind="allreduce") == 2
        nbytes = reg.counter_total("vmpi_collective_bytes_total")
        assert nbytes == 2 * 16 * 8  # two calls, one 16-f64 payload each
        hist = reg.histogram("vmpi_collective_cost_seconds", kind="allreduce")
        assert hist.count == 2
        assert hist.sum > 0.0

    def test_compute_seconds_tracked_per_category(self, small_world):
        tele = Telemetry()
        tele.install(small_world)
        with small_world.phase("str_compute"):
            small_world.charge_compute(range(4), flops=1e9)
        charged = tele.metrics.counter_total(
            "vmpi_compute_rank_seconds_total", category="str_compute"
        )
        assert charged == pytest.approx(float(np.sum(small_world.clock[:4])))


class TestHistogramQuantile:
    """Prometheus ``histogram_quantile`` semantics."""

    def test_empty_histogram_is_nan(self):
        h = Histogram(buckets=(1.0, 2.0))
        assert np.isnan(h.quantile(0.5))
        assert np.isnan(Histogram(buckets=()).quantile(0.5))

    def test_linear_interpolation_within_crossing_bucket(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 2.5, 3.5):
            h.observe(v)
        # q=0.5 -> rank 2 crosses in bucket (1, 2]: 1 + 1 * (2-1)/1
        assert h.quantile(0.5) == pytest.approx(2.0)
        # q=0.75 -> rank 3 crosses in bucket (2, 4]: 2 + 2 * (3-2)/2
        assert h.quantile(0.75) == pytest.approx(3.0)

    def test_first_bucket_interpolates_from_zero(self):
        h = Histogram(buckets=(1.0, 2.0))
        for _ in range(4):
            h.observe(0.9)
        assert h.quantile(0.5) == pytest.approx(0.5)

    def test_inf_bucket_returns_highest_finite_bound(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(50.0)  # lands in the +Inf overflow bucket
        assert h.quantile(0.99) == 2.0
        assert h.quantile(1.0) == 2.0
        # all mass in overflow: still clamped to the last finite bound
        h2 = Histogram(buckets=(1.0, 2.0))
        h2.observe(100.0)
        assert h2.quantile(0.5) == 2.0

    def test_quantile_zero_and_one(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        h.observe(2.5)
        h.observe(3.0)
        # q=0 anchors at the lower bound of the first occupied bucket
        assert h.quantile(0.0) == pytest.approx(2.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_out_of_range_rejected(self):
        h = Histogram(buckets=(1.0,))
        with pytest.raises(ReproError):
            h.quantile(-0.1)
        with pytest.raises(ReproError):
            h.quantile(1.1)


class TestWindowedDeltaProtocol:
    """snapshot()/delta()/merge(): the monitor's rollup primitive."""

    BUCKETS = (0.5, 1.0, 5.0, 25.0)

    # multiples of 0.5 keep every partial sum exactly representable,
    # so the bit-for-bit claim below holds for .sum too
    values = st.lists(
        st.integers(min_value=0, max_value=200).map(lambda k: k * 0.5),
        max_size=20,
    )

    @given(windows=st.lists(values, max_size=6))
    @settings(deadline=None)
    def test_window_deltas_merge_back_to_cumulative(self, windows):
        cum = Histogram(buckets=self.BUCKETS)
        merged = Histogram(buckets=self.BUCKETS)
        mark = cum.snapshot()
        for window in windows:
            for v in window:
                cum.observe(v)
            delta = cum.delta(mark)
            mark = cum.snapshot()
            assert delta.count == len(window)
            merged.merge(delta)
        assert merged.counts == cum.counts
        assert merged.count == cum.count
        assert merged.sum == cum.sum
        if cum.count:
            for q in (0.5, 0.99):
                assert merged.quantile(q) == cum.quantile(q)

    def test_snapshot_is_immutable(self):
        h = Histogram(buckets=(1.0, 2.0))
        snap = h.snapshot()
        h.observe(0.5)
        assert snap.count == 0 and h.count == 1
        assert h.delta(snap).count == 1

    def test_delta_rejects_mismatched_buckets(self):
        h = Histogram(buckets=(1.0, 2.0))
        other = Histogram(buckets=(1.0, 3.0))
        with pytest.raises(ReproError, match="different buckets"):
            h.delta(other.snapshot())
        with pytest.raises(ReproError, match="different buckets"):
            h.merge(other)

    def test_delta_rejects_snapshot_from_the_future(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)
        ahead = h.snapshot()
        fresh = Histogram(buckets=(1.0, 2.0))
        with pytest.raises(ReproError, match="ahead"):
            fresh.delta(ahead)

    def test_from_state_round_trip(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        snap = h.snapshot()
        back = Histogram.from_state(
            snap.buckets, snap.counts, snap.sum, snap.count
        )
        assert back.counts == h.counts
        assert back.sum == h.sum and back.count == h.count
        with pytest.raises(ReproError, match="counts"):
            Histogram.from_state((1.0, 2.0), (1,), 0.5, 1)

    def test_registry_read_only_lookups(self):
        reg = MetricsRegistry()
        assert reg.histogram_or_none("ttr") is None
        reg.histogram("ttr", tenant="a").observe(1.0)
        reg.histogram("ttr", tenant="b").observe(2.0)
        assert reg.histogram_or_none("ttr", tenant="a") is not None
        named = reg.histograms_named("ttr")
        assert [labels for labels, _ in named] == [
            {"tenant": "a"}, {"tenant": "b"}
        ]
        assert sum(h.count for _, h in named) == 2

    def test_registry_from_dict_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("hits", kind="a").inc(2.0)
        reg.gauge("depth").set(7.0)
        reg.histogram("ttr").observe(0.3)
        back = MetricsRegistry.from_dict(reg.to_dict())
        assert back.to_dict() == reg.to_dict()
        assert json.dumps(back.to_dict(), sort_keys=True) == json.dumps(
            reg.to_dict(), sort_keys=True
        )
