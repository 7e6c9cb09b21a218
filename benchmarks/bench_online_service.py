"""Online service: windowed batching + elastic pool vs FIFO/fixed-pool.

The batch campaign benchmark (``bench_campaign_throughput.py``) asks
how much signature sharing buys when every request is *already there*.
This bench asks the service-shaped question: requests arrive as a
Poisson stream near the FIFO baseline's saturation point — what do the
moving window and the elastic node pool buy *then*?

Two runs on the identical request stream (same seed, replayed):

- **windowed + elastic** — the :class:`~repro.service.OnlineService`
  defaults: signature groups held up to ``max_hold_s``, dispatched as
  shared-cmat jobs, warm :class:`~repro.campaign.cache.CmatCache`,
  pool growing from a small floor and draining when idle.
- **FIFO + fixed pool** — the CGYRO-style baseline: every request is
  its own k=1 job dispatched on arrival (zero hold, no sharing, no
  cache) on a pool pinned at the full machine.

At the paper's nl03c scale the arrival rate is chosen *above* the
FIFO baseline's service capacity (each private-cmat job rebuilds the
collisional tensor from scratch, so the machine fits few of them per
unit time) but comfortably inside the windowed service's: the FIFO
backlog grows for the whole horizon and its p99 time-to-result
diverges, while the windowed service holds p99 near the window bound
and keeps SLO attainment >= 95% — on fewer node-seconds, because the
pool drains between bursts.

``--smoke`` shrinks to the small-test grid where jobs are too short to
saturate anything; it checks accounting, SLO, and byte-stability, and
records the gate metrics at a reproducible scale.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_online_service.py -s
    PYTHONPATH=src python -m pytest benchmarks/bench_online_service.py -s --smoke
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cgyro.presets import (
    NL03C_SCALED_MEM_PER_RANK,
    nl03c_scaled,
    small_test,
)
from repro.machine import frontier_like, generic_cluster
from repro.machine.model import KiB
from repro.service import (
    OnlineService,
    PoissonTraffic,
    TenantSpec,
    WindowPolicy,
    replay,
)


@pytest.fixture(scope="module")
def scenario(smoke):
    """(machine, stream, steps, slo_s, service kwargs, fifo kwargs).

    The stream is generated once and replayed into both services so
    the comparison sees the identical arrival sequence.
    """
    if smoke:
        machine = replace(
            generic_cluster(n_nodes=4, ranks_per_node=4),
            mem_per_rank_bytes=float(96 * KiB),
        )
        base = small_test()
        workload = [base, base.with_updates(nu=base.nu * 2.0)]
        rate, horizon, steps, slo_s = 0.05, 240.0, 2, 600.0
        window = WindowPolicy(max_hold_s=30.0, min_batch=2)
        pool = dict(
            min_nodes=1, max_nodes=4,
            provision_delay_s=15.0, idle_reclaim_s=120.0,
        )
    else:
        machine = frontier_like(
            n_nodes=32,
            mem_per_rank_bytes=1.5 * NL03C_SCALED_MEM_PER_RANK,
        )
        base = nl03c_scaled(steps_per_report=1)
        workload = [
            base.with_updates(
                nu=base.nu * (1.0 + fam), dlntdr=(3.0 + 0.1 * m,) * 2,
                name=f"f{fam}.m{m}",
            )
            for fam in (0, 1)
            for m in range(4)
        ]
        # FIFO capacity: ~2 concurrent 16-node private-cmat jobs of
        # ~30 s each -> ~0.067 req/s.  0.2 req/s oversubscribes FIFO
        # 3x (its backlog grows for the whole horizon) while the
        # windowed service (k-member jobs, warm cache) absorbs it
        # with headroom.
        rate, horizon, steps, slo_s = 0.2, 180.0, 1, 150.0
        window = WindowPolicy(max_hold_s=30.0, min_batch=4)
        pool = dict(
            min_nodes=4, max_nodes=32,
            provision_delay_s=20.0, idle_reclaim_s=120.0,
        )
    # a single tenant whose SLO *is* the bench deadline: the traffic
    # model stamps deadline_s = arrival + slo_s on every request
    tenants = (TenantSpec("svc", slo_s=slo_s),)
    stream = PoissonTraffic(
        workload, rate_per_s=rate, tenants=tenants, seed=42
    ).generate(horizon)
    windowed = dict(window=window, steps=steps, **pool)
    fifo = dict(
        window=WindowPolicy(max_hold_s=0.0, min_batch=1, max_batch=1),
        steps=steps,
        prefer_larger_k=False,
        use_cache=False,
        min_nodes=machine.n_nodes,
        max_nodes=machine.n_nodes,
        provision_delay_s=0.0,
        idle_reclaim_s=float("inf"),
    )
    return machine, stream, horizon, windowed, fifo


@pytest.fixture(scope="module")
def reports(scenario):
    machine, stream, horizon, windowed_kw, fifo_kw = scenario
    windowed = OnlineService(machine, replay(stream), **windowed_kw).run(
        horizon
    )
    fifo = OnlineService(machine, replay(stream), **fifo_kw).run(horizon)
    return {"windowed": windowed, "fifo": fifo}


def test_everything_is_served(reports):
    """Neither service sheds or abandons at this load (the queue is
    unbounded here; overload shows up as latency, not loss)."""
    for name, rep in reports.items():
        assert rep.offered == len(rep.served) + rep.n_shed + rep.n_abandoned
        assert rep.n_served == rep.offered, name


def test_windowed_beats_fifo_p99_ttr(reports, smoke, bench_json):
    """Near saturation the FIFO backlog diverges; the window holds."""
    w, f = reports["windowed"], reports["fifo"]
    bench_json.record(
        "online_service",
        p99_ttr_s=w.p99_ttr_s,
        p50_ttr_s=w.p50_ttr_s,
        fifo_p99_ttr_s=f.p99_ttr_s,
        goodput_member_steps_per_s=w.goodput_member_steps_per_s,
        shed_rate=w.shed_rate,
        slo_attainment=w.slo_attainment,
    )
    print(
        f"\nTTR p50/p99: windowed {w.p50_ttr_s:.1f}/{w.p99_ttr_s:.1f} s "
        f"vs FIFO {f.p50_ttr_s:.1f}/{f.p99_ttr_s:.1f} s  "
        f"({w.n_served} requests, mean k {w.mean_k:.2f} vs {f.mean_k:.2f})"
    )
    if smoke:
        # unsaturated: jobs are ~ms long, so FIFO's zero hold wins on
        # latency by construction; just sanity-check the windowed run
        assert w.p99_ttr_s <= w.horizon_s
        return
    assert w.p99_ttr_s < f.p99_ttr_s
    assert w.mean_k > 1.0 and f.mean_k == 1.0


def test_windowed_slo_attainment(reports, smoke):
    """The windowed service keeps its promise; saturated FIFO cannot."""
    w, f = reports["windowed"], reports["fifo"]
    print(
        f"\nSLO attainment: windowed {100 * w.slo_attainment:.1f}% "
        f"vs FIFO {100 * f.slo_attainment:.1f}%"
    )
    assert w.slo_attainment >= 0.95
    if not smoke:
        assert f.slo_attainment < w.slo_attainment


def test_elastic_pool_costs_fewer_node_seconds(reports):
    """Growing on demand and draining on idle beats pinning the full
    machine for the whole run."""
    w, f = reports["windowed"], reports["fifo"]
    print(
        f"\npool cost: windowed {w.pool_node_seconds:.0f} node-s "
        f"(peak {w.peak_pool_nodes}) vs fixed {f.pool_node_seconds:.0f} "
        f"node-s (peak {f.peak_pool_nodes})"
    )
    assert w.pool_node_seconds < f.pool_node_seconds
    assert w.peak_pool_nodes <= f.peak_pool_nodes


def test_cache_carries_the_windowed_service(reports, smoke):
    """Within a signature family only the first job assembles the
    tensor; every later dispatch reuses it."""
    w, f = reports["windowed"], reports["fifo"]
    print(f"\ncache hit rate: windowed {100 * w.cache_hit_rate:.1f}%")
    assert f.cache_hit_rate == 0.0
    if not smoke:
        assert w.cache_hit_rate >= 0.5


def test_same_seed_rerun_is_byte_stable(scenario):
    """The whole service pipeline is deterministic end to end."""
    machine, stream, horizon, windowed_kw, _ = scenario
    a = OnlineService(machine, replay(stream), **windowed_kw).run(horizon)
    b = OnlineService(machine, replay(stream), **windowed_kw).run(horizon)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )
