"""Traffic model determinism, stamping, and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError, ServiceError
from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.obs.monitor import ServiceMonitor
from repro.resilience.health import RetryPolicy
from repro.service.pool import ElasticNodePool
from repro.service.traffic import (
    BurstyTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    ReplayTraffic,
    TenantSpec,
    replay,
)
from repro.service.window import WindowPolicy

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


NAN, INF = float("nan"), float("inf")
_BURSTY = dict(calm_rate_per_s=0.05, burst_rate_per_s=0.5, mean_calm_s=100.0,
               mean_burst_s=30.0)
_DIURNAL = dict(base_rate_per_s=0.02, peak_rate_per_s=0.3, period_s=600.0)
_POOL = generic_cluster(n_nodes=2, ranks_per_node=4)

#: every leaf check a number from a ``serve`` / ``campaign`` / ``monitor``
#: flag reaches, handed NaN or infinity (NaN passes ``x <= 0``, and an
#: infinite horizon or rate never finishes drawing arrivals)
NON_FINITE = {
    "horizon nan": lambda: PoissonTraffic(WORKLOAD, rate_per_s=0.1).generate(NAN),
    "horizon inf": lambda: PoissonTraffic(WORKLOAD, rate_per_s=0.1).generate(INF),
    "replay horizon": lambda: replay(
        [PoissonTraffic(WORKLOAD, rate_per_s=0.1).generate(100.0)[0]]
    ).generate(NAN),
    "rate nan": lambda: PoissonTraffic(WORKLOAD, rate_per_s=NAN),
    "rate inf": lambda: PoissonTraffic(WORKLOAD, rate_per_s=INF),
    "mean calm": lambda: BurstyTraffic(WORKLOAD, **{**_BURSTY, "mean_calm_s": NAN}),
    "burst rate": lambda: BurstyTraffic(
        WORKLOAD, **{**_BURSTY, "burst_rate_per_s": NAN}
    ),
    "base rate": lambda: DiurnalTraffic(
        WORKLOAD, **{**_DIURNAL, "base_rate_per_s": NAN}
    ),
    "peak rate": lambda: DiurnalTraffic(
        WORKLOAD, **{**_DIURNAL, "peak_rate_per_s": NAN}
    ),
    "period": lambda: DiurnalTraffic(WORKLOAD, **{**_DIURNAL, "period_s": NAN}),
    "tenant weight": lambda: TenantSpec("a", weight=NAN),
    "tenant slo": lambda: TenantSpec("a", slo_s=NAN),
    "max hold": lambda: WindowPolicy(max_hold_s=NAN),
    "provision delay": lambda: ElasticNodePool(_POOL, provision_delay_s=NAN),
    "idle reclaim": lambda: ElasticNodePool(_POOL, idle_reclaim_s=NAN),
    "grow stall": lambda: ElasticNodePool(_POOL).pick_grow(1, 0.0, extra_delay_s=NAN),
    "backoff": lambda: RetryPolicy(base_backoff_s=NAN),
    "backoff factor": lambda: RetryPolicy(backoff_factor=NAN),
    "monitor window nan": lambda: ServiceMonitor(window_s=NAN),
    "monitor window inf": lambda: ServiceMonitor(window_s=INF),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_a_non_finite_number_is_refused(name):
    with pytest.raises(ReproError, match="must be"):
        NON_FINITE[name]()


def test_infinity_stays_legal_where_it_means_never():
    assert ElasticNodePool(_POOL, idle_reclaim_s=INF).next_reclaim() is None
    assert WindowPolicy(max_hold_s=INF).max_hold_s == INF


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
