"""Deterministic request-traffic models for the online service.

The batch campaign assumed every request was already queued at t=0;
the service loop instead meets requests *as they arrive*.  This module
generates those arrival streams — seeded, replayable, and entirely on
the simulated clock — in three canonical shapes:

- :class:`PoissonTraffic` — memoryless arrivals at a constant rate,
  the steady-state baseline every queueing result is stated against;
- :class:`BurstyTraffic` — a two-state Markov-modulated Poisson
  process (calm/burst phases with exponential dwell times), the shape
  that actually stresses admission control and the elastic pool;
- :class:`DiurnalTraffic` — an inhomogeneous Poisson process with a
  sinusoidal day/night intensity, generated by Lewis-Shedler thinning,
  the "millions of users" envelope the ROADMAP points at.

Each model draws simulation inputs from a *workload* (a pool of
:class:`~repro.cgyro.params.CgyroInput` templates — repeats are what
make signature sharing possible) and attributes every request to a
:class:`TenantSpec`, stamping the tenant's SLO as the request deadline.
All randomness flows through one ``numpy`` generator seeded at
construction, so the same seed always yields the byte-identical
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.cgyro.params import CgyroInput
from repro.campaign.request import SimRequest


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the service: identity, fair share, and SLO.

    Parameters
    ----------
    name:
        Tenant identifier (lands on every generated request).
    weight:
        Relative fair share; the scheduler serves tenants in
        proportion to their weights.
    slo_s:
        Time-to-result objective in simulated seconds; each request's
        ``deadline_s`` is its arrival plus this.
    """

    name: str
    weight: float = 1.0
    slo_s: float = 600.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("tenant name must be non-empty")
        if not 0 < self.weight < float("inf"):
            raise ServiceError(f"tenant weight must be in (0, inf), got {self.weight}")
        if not 0 < self.slo_s < float("inf"):
            raise ServiceError(f"tenant slo_s must be in (0, inf), got {self.slo_s}")


#: Default tenant used when a model is built without an explicit list.
DEFAULT_TENANTS = (TenantSpec("default"),)


class TrafficModel:
    """Base class: arrival-time process + request stamping.

    Subclasses implement :meth:`arrival_times`; the base class turns
    those times into fully-formed :class:`SimRequest` objects by
    cycling the workload (uniformly at random — repeats across
    requests are the sharing opportunity) and sampling a tenant by
    weight.  Request ids are ``f"req{i:05d}"``.

    Parameters
    ----------
    workload:
        Non-empty pool of input templates requests draw from.
    tenants:
        Tenant population; defaults to a single ``"default"`` tenant.
    seed:
        Seed for the model's private generator.
    """

    def __init__(
        self,
        workload: Sequence[CgyroInput],
        *,
        tenants: Sequence[TenantSpec] = DEFAULT_TENANTS,
        seed: int = 0,
    ) -> None:
        if not workload:
            raise ServiceError("traffic needs a non-empty workload pool")
        if not tenants:
            raise ServiceError("traffic needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate tenant names: {names}")
        if seed < 0:
            raise ServiceError(f"seed must be >= 0, got {seed}")
        self.workload = tuple(workload)
        self.tenants = tuple(tenants)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def arrival_times(
        self, horizon_s: float, rng: np.random.Generator
    ) -> List[float]:
        """Strictly increasing arrival times in ``[0, horizon_s)``."""
        raise NotImplementedError

    def generate(self, horizon_s: float) -> List[SimRequest]:
        """The request stream for one horizon, in arrival order."""
        if not 0 < horizon_s < float("inf"):
            raise ServiceError(f"horizon_s must be in (0, inf), got {horizon_s}")
        rng = np.random.default_rng(self.seed)
        times = self.arrival_times(float(horizon_s), rng)
        weights = np.array([t.weight for t in self.tenants])
        weights = weights / weights.sum()
        requests: List[SimRequest] = []
        for i, at in enumerate(times):
            inp = self.workload[int(rng.integers(len(self.workload)))]
            tenant = self.tenants[int(rng.choice(len(self.tenants), p=weights))]
            requests.append(
                SimRequest(
                    request_id=f"req{i:05d}",
                    input=inp,
                    arrival_s=float(at),
                    tenant=tenant.name,
                    deadline_s=float(at) + tenant.slo_s,
                )
            )
        return requests


# ----------------------------------------------------------------------
class PoissonTraffic(TrafficModel):
    """Constant-rate Poisson arrivals (exponential inter-arrivals)."""

    def __init__(
        self,
        workload: Sequence[CgyroInput],
        *,
        rate_per_s: float,
        tenants: Sequence[TenantSpec] = DEFAULT_TENANTS,
        seed: int = 0,
    ) -> None:
        super().__init__(workload, tenants=tenants, seed=seed)
        if not 0 < rate_per_s < float("inf"):
            raise ServiceError(f"rate_per_s must be in (0, inf), got {rate_per_s}")
        self.rate_per_s = float(rate_per_s)

    def arrival_times(
        self, horizon_s: float, rng: np.random.Generator
    ) -> List[float]:
        times: List[float] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / self.rate_per_s)
            if t >= horizon_s:
                return times
            times.append(t)


class BurstyTraffic(TrafficModel):
    """Two-state Markov-modulated Poisson process.

    The process alternates *calm* and *burst* phases with
    exponentially distributed dwell times; within a phase arrivals are
    Poisson at that phase's rate.  The long-run offered rate is the
    dwell-weighted mix of the two, but the instantaneous rate swings —
    exactly the load shape that exposes a fixed-size pool.
    """

    def __init__(
        self,
        workload: Sequence[CgyroInput],
        *,
        calm_rate_per_s: float,
        burst_rate_per_s: float,
        mean_calm_s: float,
        mean_burst_s: float,
        tenants: Sequence[TenantSpec] = DEFAULT_TENANTS,
        seed: int = 0,
    ) -> None:
        super().__init__(workload, tenants=tenants, seed=seed)
        for name, val in (
            ("calm_rate_per_s", calm_rate_per_s),
            ("burst_rate_per_s", burst_rate_per_s),
            ("mean_calm_s", mean_calm_s),
            ("mean_burst_s", mean_burst_s),
        ):
            if not 0 < val < float("inf"):
                raise ServiceError(f"{name} must be in (0, inf), got {val}")
        if burst_rate_per_s <= calm_rate_per_s:
            raise ServiceError(
                "burst_rate_per_s must exceed calm_rate_per_s "
                f"({burst_rate_per_s} <= {calm_rate_per_s})"
            )
        self.calm_rate_per_s = float(calm_rate_per_s)
        self.burst_rate_per_s = float(burst_rate_per_s)
        self.mean_calm_s = float(mean_calm_s)
        self.mean_burst_s = float(mean_burst_s)

    def arrival_times(
        self, horizon_s: float, rng: np.random.Generator
    ) -> List[float]:
        times: List[float] = []
        t, burst = 0.0, False
        while t < horizon_s:
            dwell = rng.exponential(
                self.mean_burst_s if burst else self.mean_calm_s
            )
            rate = self.burst_rate_per_s if burst else self.calm_rate_per_s
            phase_end = min(t + dwell, horizon_s)
            at = t
            while True:
                at += rng.exponential(1.0 / rate)
                if at >= phase_end:
                    break
                times.append(at)
            t = phase_end
            burst = not burst
        return times


class DiurnalTraffic(TrafficModel):
    """Inhomogeneous Poisson arrivals with a sinusoidal daily cycle.

    Intensity ``rate(t) = base + (peak - base) * (1 - cos(2*pi*t/T))/2``
    starts at the trough, crests at ``T/2``, and returns — one "day"
    per ``period_s``.  Sampling is Lewis-Shedler thinning against the
    peak rate, which keeps the stream exact for any intensity bounded
    by ``peak_rate_per_s``.
    """

    def __init__(
        self,
        workload: Sequence[CgyroInput],
        *,
        base_rate_per_s: float,
        peak_rate_per_s: float,
        period_s: float,
        tenants: Sequence[TenantSpec] = DEFAULT_TENANTS,
        seed: int = 0,
    ) -> None:
        super().__init__(workload, tenants=tenants, seed=seed)
        if not 0 <= base_rate_per_s < float("inf"):
            raise ServiceError(
                f"base_rate_per_s must be in [0, inf), got {base_rate_per_s}"
            )
        if not base_rate_per_s < peak_rate_per_s < float("inf"):
            raise ServiceError(
                f"peak_rate_per_s must be in (base_rate_per_s={base_rate_per_s}, "
                f"inf), got {peak_rate_per_s}"
            )
        if not 0 < period_s < float("inf"):
            raise ServiceError(f"period_s must be in (0, inf), got {period_s}")
        self.base_rate_per_s = float(base_rate_per_s)
        self.peak_rate_per_s = float(peak_rate_per_s)
        self.period_s = float(period_s)

    def rate_at(self, t: float) -> float:
        """The instantaneous intensity at simulated time ``t``."""
        swing = self.peak_rate_per_s - self.base_rate_per_s
        phase = 2.0 * np.pi * t / self.period_s
        return self.base_rate_per_s + swing * 0.5 * (1.0 - float(np.cos(phase)))

    def arrival_times(
        self, horizon_s: float, rng: np.random.Generator
    ) -> List[float]:
        times: List[float] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / self.peak_rate_per_s)
            if t >= horizon_s:
                return times
            if rng.uniform() <= self.rate_at(t) / self.peak_rate_per_s:
                times.append(t)


# ----------------------------------------------------------------------
def replay(requests: Sequence[SimRequest]) -> "ReplayTraffic":
    """Wrap a pre-built request list as a traffic model (benchmarks
    replay the identical stream through different schedulers)."""
    return ReplayTraffic(requests)


class ReplayTraffic(TrafficModel):
    """A fixed, pre-generated stream — the determinism escape hatch."""

    def __init__(self, requests: Sequence[SimRequest]) -> None:
        if not requests:
            raise ServiceError("replay traffic needs at least one request")
        arrivals = [r.arrival_s for r in requests]
        if arrivals != sorted(arrivals):
            raise ServiceError("replay requests must be in arrival order")
        # base-class invariants want a workload/tenant pool; the stream
        # is already stamped, so these are never sampled from
        super().__init__([requests[0].input])
        self.requests = tuple(requests)

    def generate(self, horizon_s: float) -> List[SimRequest]:
        """The wrapped stream, cut at the horizon."""
        if not 0 < horizon_s < float("inf"):
            raise ServiceError(f"horizon_s must be in (0, inf), got {horizon_s}")
        return [r for r in self.requests if r.arrival_s < horizon_s]
