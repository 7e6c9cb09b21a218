"""Traffic model determinism, stamping, and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.cgyro.presets import small_test
from repro.service.traffic import (
    BurstyTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    ReplayTraffic,
    TenantSpec,
    replay,
)

WORKLOAD = [small_test(), small_test(nu=0.2), small_test(n_energy=4)]


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: PoissonTraffic(WORKLOAD, rate_per_s=0.1, seed=s),
            lambda s: BurstyTraffic(
                WORKLOAD,
                calm_rate_per_s=0.05,
                burst_rate_per_s=0.5,
                mean_calm_s=100.0,
                mean_burst_s=30.0,
                seed=s,
            ),
            lambda s: DiurnalTraffic(
                WORKLOAD,
                base_rate_per_s=0.02,
                peak_rate_per_s=0.3,
                period_s=600.0,
                seed=s,
            ),
        ],
        ids=["poisson", "bursty", "diurnal"],
    )
    def test_same_seed_same_stream(self, factory):
        a = factory(3).generate(500.0)
        b = factory(3).generate(500.0)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
        c = factory(4).generate(500.0)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in c]

    def test_streams_are_ordered_and_within_horizon(self):
        reqs = PoissonTraffic(WORKLOAD, rate_per_s=0.2, seed=1).generate(300.0)
        times = [r.arrival_s for r in reqs]
        assert times == sorted(times)
        assert all(0.0 < t < 300.0 for t in times)
        assert len({r.request_id for r in reqs}) == len(reqs)


class TestStamping:
    def test_tenant_and_deadline_stamped(self):
        tenants = (
            TenantSpec("a", weight=3.0, slo_s=100.0),
            TenantSpec("b", weight=1.0, slo_s=900.0),
        )
        reqs = PoissonTraffic(
            WORKLOAD, rate_per_s=0.5, tenants=tenants, seed=2
        ).generate(400.0)
        assert reqs, "expected a non-empty stream"
        slos = {"a": 100.0, "b": 900.0}
        for r in reqs:
            assert r.tenant in slos
            assert r.deadline_s == pytest.approx(r.arrival_s + slos[r.tenant])
        # weight 3:1 should skew the draw visibly over ~200 requests
        n_a = sum(1 for r in reqs if r.tenant == "a")
        assert n_a > len(reqs) // 2

    def test_workload_pool_is_sampled(self):
        reqs = PoissonTraffic(WORKLOAD, rate_per_s=0.5, seed=0).generate(400.0)
        drawn = {(r.input.nu, r.input.n_energy) for r in reqs}
        assert len(drawn) > 1  # more than one template drawn


class TestDiurnalShape:
    def test_rate_at_trough_and_crest(self):
        model = DiurnalTraffic(
            WORKLOAD,
            base_rate_per_s=0.1,
            peak_rate_per_s=0.5,
            period_s=600.0,
        )
        assert model.rate_at(0.0) == pytest.approx(0.1)
        assert model.rate_at(300.0) == pytest.approx(0.5)
        assert model.rate_at(600.0) == pytest.approx(0.1)

    def test_arrivals_concentrate_at_the_crest(self):
        model = DiurnalTraffic(
            WORKLOAD,
            base_rate_per_s=0.01,
            peak_rate_per_s=1.0,
            period_s=1000.0,
            seed=5,
        )
        times = np.array([r.arrival_s for r in model.generate(1000.0)])
        mid = ((times > 250.0) & (times < 750.0)).sum()
        assert mid > 0.7 * len(times)


class TestReplay:
    def test_replay_returns_the_stream_cut_at_horizon(self):
        stream = PoissonTraffic(WORKLOAD, rate_per_s=0.2, seed=9).generate(
            300.0
        )
        model = replay(stream)
        assert isinstance(model, ReplayTraffic)
        assert model.generate(300.0) == stream
        half = model.generate(150.0)
        assert half == [r for r in stream if r.arrival_s < 150.0]

    def test_replay_rejects_unordered(self):
        stream = PoissonTraffic(WORKLOAD, rate_per_s=0.2, seed=9).generate(
            300.0
        )
        with pytest.raises(ServiceError):
            ReplayTraffic(list(reversed(stream)))


class TestValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(ServiceError):
            PoissonTraffic([], rate_per_s=1.0)

    def test_bad_rates_rejected(self):
        with pytest.raises(ServiceError):
            PoissonTraffic(WORKLOAD, rate_per_s=0.0)
        with pytest.raises(ServiceError):
            BurstyTraffic(
                WORKLOAD,
                calm_rate_per_s=0.5,
                burst_rate_per_s=0.1,  # burst must exceed calm
                mean_calm_s=10.0,
                mean_burst_s=10.0,
            )
        with pytest.raises(ServiceError):
            DiurnalTraffic(
                WORKLOAD,
                base_rate_per_s=0.5,
                peak_rate_per_s=0.5,  # peak must exceed base
                period_s=100.0,
            )

    def test_negative_seed_rejected(self):
        """Refused at construction, before a generator is seeded."""
        with pytest.raises(ServiceError, match="seed must be >= 0, got -1"):
            PoissonTraffic(WORKLOAD, rate_per_s=1.0, seed=-1)
        with pytest.raises(ServiceError, match="seed"):
            DiurnalTraffic(WORKLOAD, base_rate_per_s=0.1, peak_rate_per_s=0.5,
                           period_s=100.0, seed=-2)

    def test_tenant_validation(self):
        with pytest.raises(ServiceError):
            TenantSpec("")
        with pytest.raises(ServiceError):
            TenantSpec("x", weight=0.0)
        with pytest.raises(ServiceError):
            TenantSpec("x", slo_s=0.0)
        with pytest.raises(ServiceError):
            PoissonTraffic(
                WORKLOAD,
                rate_per_s=1.0,
                tenants=(TenantSpec("a"), TenantSpec("a")),
            )

    def test_bad_horizon_rejected(self):
        with pytest.raises(ServiceError):
            PoissonTraffic(WORKLOAD, rate_per_s=1.0).generate(0.0)
