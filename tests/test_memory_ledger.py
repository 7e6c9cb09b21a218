"""Tests for the per-rank memory ledger."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryLimitExceeded
from repro.machine.memory import MemoryLedger


class TestBasicAccounting:
    def test_alloc_free_roundtrip(self):
        led = MemoryLedger(1000)
        led.alloc("a", 400)
        assert led.in_use_bytes == 400
        assert led.size_of("a") == 400
        assert "a" in led
        freed = led.free("a")
        assert freed == 400
        assert led.in_use_bytes == 0
        assert "a" not in led

    def test_peak_tracks_high_water_mark(self):
        led = MemoryLedger(1000)
        led.alloc("a", 600)
        led.free("a")
        led.alloc("b", 100)
        assert led.peak_bytes == 600
        assert led.in_use_bytes == 100

    def test_over_limit_raises_and_leaves_state_unchanged(self):
        led = MemoryLedger(1000)
        led.alloc("a", 800)
        with pytest.raises(MemoryLimitExceeded) as exc:
            led.alloc("b", 300)
        err = exc.value
        assert err.requested_bytes == 300
        assert err.in_use_bytes == 800
        assert err.limit_bytes == 1000
        assert err.breakdown == {"a": 800}
        assert led.in_use_bytes == 800
        assert "b" not in led

    def test_exact_fit_succeeds(self):
        led = MemoryLedger(1000)
        led.alloc("a", 1000)
        assert led.in_use_bytes == 1000
        assert not led.would_fit("b", 1)

    def test_unlimited_ledger_never_raises(self):
        led = MemoryLedger(None)
        led.alloc("huge", 10**15)
        assert math.isinf(led._limit)

    def test_duplicate_name_rejected(self):
        led = MemoryLedger(1000)
        led.alloc("a", 1)
        with pytest.raises(ValueError):
            led.alloc("a", 1)

    def test_free_unknown_name_raises(self):
        with pytest.raises(KeyError):
            MemoryLedger(10).free("ghost")

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            MemoryLedger(10).alloc("a", -1)

    def test_would_fit(self):
        led = MemoryLedger(100)
        led.alloc("a", 60)
        assert led.would_fit("b", 40)
        assert not led.would_fit("b", 41)

    def test_would_fit_rejects_live_name_without_side_effects(self):
        led = MemoryLedger(100)
        led.alloc("a", 10)
        assert not led.would_fit("a", 1)  # alloc("a", 1) would raise
        assert led.in_use_bytes == 10

    def test_would_fit_negative_size_raises(self):
        with pytest.raises(ValueError):
            MemoryLedger(10).would_fit("a", -1)

    def test_a_fractional_limit_fits_its_floor(self):
        led = MemoryLedger(100.7)
        led.alloc("a", 60)
        assert led.would_fit("b", 40)
        assert not led.would_fit("b", 41)

    def test_report_lists_largest_first(self):
        led = MemoryLedger(1000, rank=3)
        led.alloc("small", 10)
        led.alloc("big", 500)
        text = led.report()
        assert text.index("big") < text.index("small")
        assert "rank=3" in text

    def test_rank_appears_in_error(self):
        led = MemoryLedger(10, rank=7)
        with pytest.raises(MemoryLimitExceeded) as exc:
            led.alloc("x", 11)
        assert exc.value.rank == 7
        assert "rank 7" in str(exc.value)


class TestPropertyBased:
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30)
    )
    def test_in_use_equals_sum_of_live_allocations(self, sizes):
        led = MemoryLedger(None)
        for i, s in enumerate(sizes):
            led.alloc(f"buf{i}", s)
        assert led.in_use_bytes == sum(sizes)
        assert led.peak_bytes == sum(sizes)
        # free every other allocation
        for i in range(0, len(sizes), 2):
            led.free(f"buf{i}")
        expected = sum(s for i, s in enumerate(sizes) if i % 2 == 1)
        assert led.in_use_bytes == expected

    @given(
        limit=st.integers(min_value=1, max_value=1000),
        request=st.integers(min_value=0, max_value=2000),
    )
    def test_would_fit_agrees_with_alloc(self, limit, request):
        led = MemoryLedger(limit)
        fits = led.would_fit("x", request)
        if fits:
            led.alloc("x", request)  # must not raise
        else:
            with pytest.raises(MemoryLimitExceeded):
                led.alloc("x", request)
