"""Tests for numerical verification (convergence orders)."""

from __future__ import annotations

import pytest

from repro.cgyro import small_test
from repro.cgyro.verification import (
    split_step_convergence,
    streaming_convergence,
)


@pytest.fixture(scope="module")
def smooth_input():
    """Well-resolved, moderately-driven case for convergence studies."""
    return small_test(dlntdr=(4.0, 4.0), nu=0.1, upwind_coeff=0.2)


class TestConvergenceOrders:
    def test_streaming_is_fourth_order(self, smooth_input):
        res = streaming_convergence(smooth_input)
        print("\n" + res.render())
        assert 3.5 < res.observed_order < 4.5
        # errors strictly decrease with dt
        assert all(b < a for a, b in zip(res.errors, res.errors[1:]))

    def test_split_step_is_first_order(self, smooth_input):
        res = split_step_convergence(smooth_input)
        print("\n" + res.render())
        assert 0.7 < res.observed_order < 1.6
