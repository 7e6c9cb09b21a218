"""Chaos economics: what does the durable control plane buy?

The robustness PR adds three things the service can spend money on —
WAL-backed crash recovery, domain-spread placement, and chaos-aware
provisioning.  This bench prices them against the naive alternative on
the identical arrival stream and the identical fault schedule (one
mid-horizon control-plane crash plus one rack loss):

- **durable** — domain-spread placement, ``recovery="resume"``: a
  crash sheds arrivals while down but *keeps the books*; in-flight
  waves are requeued (not re-served), held windows survive, and the
  warm pool carries straight on.
- **naive** — packed placement, ``recovery="cold"``: the restart
  everyone writes first.  Everything in the system at crash time is
  dead-lettered, all nodes are failed, and the pool re-provisions
  from the floor after the outage.

Scoring is deliberately survivor-bias-proof: the cold restart
dead-letters exactly the requests that would have posted slow
time-to-results, so its p99 *over served requests* can look better
while it serves *less*.  We therefore compare **penalized TTR** — every
dead-lettered request is charged ``horizon - arrival`` (it never got a
result) — alongside **availability** (served / offered).  The durable
plane must win both.

A second comparison replays the same question through the WAL: crash
the control plane mid-journal (injected :class:`JournalCrash`), then
recover the *same crashed journal* in ``resume`` and ``cold`` modes.
Resume must dominate cold on availability and penalized p99, and the
whole pipeline must be byte-stable across reruns.

``--smoke`` shrinks to the memory-tight small-test cluster (jobs are
milliseconds, so the crash differentiates through held windows and
re-provisioning rather than lost in-flight waves); the full scale runs
the paper's nl03c workload where 30-second waves are genuinely in
flight when the crash lands.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos_service.py -s
    PYTHONPATH=src python -m pytest benchmarks/bench_chaos_service.py -s --smoke
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cgyro.presets import (
    NL03C_SCALED_MEM_PER_RANK,
    nl03c_scaled,
    small_test,
)
from repro.errors import JournalCrash
from repro.machine import frontier_like, generic_cluster
from repro.machine.model import KiB
from repro.machine.topology import FaultDomains
from repro.resilience import FaultPlan, FaultSpec
from repro.service import (
    OnlineService,
    PoissonTraffic,
    ServiceJournal,
    TenantSpec,
    WindowPolicy,
    recover_service,
    replay,
)


@pytest.fixture(scope="module")
def scenario(smoke):
    """(machine, stream, horizon, chaos plan, shared service kwargs)."""
    if smoke:
        machine = dataclasses.replace(
            replace(
                generic_cluster(n_nodes=8),
                mem_per_rank_bytes=float(96 * KiB),
            ),
            fault_domains=FaultDomains(nodes_per_domain=2),
        )
        base = small_test()
        workload = [base, base.with_updates(nu=base.nu * 2.0)]
        rate, horizon, steps, slo_s = 0.05, 900.0, 2, 240.0
        window = WindowPolicy(max_hold_s=120.0, min_batch=4)
        pool = dict(
            min_nodes=1, max_nodes=8,
            provision_delay_s=60.0, idle_reclaim_s=120.0,
        )
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="service_crash", at_step=0,
                    at_s=300.0, duration_s=60.0,
                ),
                FaultSpec(
                    kind="domain_loss", at_step=0, node=1,
                    at_s=600.0, duration_s=180.0,
                ),
            )
        )
    else:
        machine = dataclasses.replace(
            frontier_like(
                n_nodes=40,
                mem_per_rank_bytes=1.5 * NL03C_SCALED_MEM_PER_RANK,
            ),
            fault_domains=FaultDomains(nodes_per_domain=4),
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
        rate, horizon, steps, slo_s = 0.2, 240.0, 1, 200.0
        window = WindowPolicy(max_hold_s=30.0, min_batch=4)
        pool = dict(
            min_nodes=4, max_nodes=40,
            provision_delay_s=30.0, idle_reclaim_s=120.0,
        )
        # the crash lands while ~30 s nl03c waves are in flight; the
        # rack loss hits after the pool has grown across domains
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind="service_crash", at_step=0,
                    at_s=90.0, duration_s=30.0,
                ),
                FaultSpec(
                    kind="domain_loss", at_step=0, node=1,
                    at_s=150.0, duration_s=60.0,
                ),
            )
        )
    tenants = (TenantSpec("svc", slo_s=slo_s),)
    stream = PoissonTraffic(
        workload, rate_per_s=rate, tenants=tenants, seed=42
    ).generate(horizon)
    kwargs = dict(
        window=window, steps=steps, chaos=plan, **pool
    )
    return machine, stream, horizon, kwargs


def _build(scenario, *, spread, recovery, journal=None):
    machine, stream, _horizon, kwargs = scenario
    return OnlineService(
        machine,
        replay(stream),
        spread_domains=spread,
        recovery=recovery,
        journal=journal,
        **kwargs,
    )


def _availability(report) -> float:
    """Served over offered: the fraction that got a result at all."""
    return report.n_served / report.offered if report.offered else 1.0


def _penalized_p99(report, horizon: float) -> float:
    """p99 TTR with dead-letters charged ``horizon - arrival``.

    A request the service gave up on never got a result; scoring it
    at the worst possible latency (the full horizon — no served TTR
    can exceed it) keeps a restart policy from *improving* its
    percentiles by dead-lettering precisely the slow tail.  Shed
    requests are excluded on both sides: admission control is the
    same policy in both services.
    """
    ttrs = [r.ttr_s for r in report.served]
    ttrs.extend(horizon for _ in report.abandoned)
    if not ttrs:
        return 0.0
    return float(np.percentile(np.asarray(ttrs, dtype=float), 99.0))


@pytest.fixture(scope="module")
def reports(scenario):
    durable = _build(scenario, spread=True, recovery="resume").run(
        scenario[2]
    )
    naive = _build(scenario, spread=False, recovery="cold").run(scenario[2])
    return {"durable": durable, "naive": naive}


def test_conservation_under_chaos(reports):
    """Crash or no crash, every offered request is accounted for."""
    for name, rep in reports.items():
        assert (
            rep.n_served + rep.n_shed + rep.n_abandoned == rep.offered
        ), name
        ids = (
            [s.request_id for s in rep.served]
            + [r.request_id for r in rep.rejections]
            + [a.request_id for a in rep.abandoned]
        )
        assert len(ids) == len(set(ids)), name


def test_durable_beats_naive_availability(reports, bench_json):
    """Cold restart dead-letters everything in-system; resume keeps it."""
    d, n = reports["durable"], reports["naive"]
    d_avail, n_avail = _availability(d), _availability(n)
    resil = d.resilience or {}
    bench_json.record(
        "chaos_service",
        availability_attainment=d_avail,
        availability_margin_attainment=d_avail - n_avail,
        dead_letter_rate=d.n_abandoned / d.offered if d.offered else 0.0,
        crash_downtime_s=float(resil.get("recovery_seconds", 0.0)),
    )
    print(
        f"\navailability: durable {100 * d_avail:.1f}% "
        f"({d.n_served}/{d.offered}, {d.n_abandoned} dead) vs naive "
        f"{100 * n_avail:.1f}% ({n.n_served}/{n.offered}, "
        f"{n.n_abandoned} dead)"
    )
    assert d_avail > n_avail
    assert d.n_abandoned <= n.n_abandoned


def test_durable_beats_naive_penalized_p99(reports, scenario, bench_json):
    """Dead-letters charged at horizon: the tail the cold restart hides."""
    horizon = scenario[2]
    d, n = reports["durable"], reports["naive"]
    d_p99 = _penalized_p99(d, horizon)
    n_p99 = _penalized_p99(n, horizon)
    bench_json.record(
        "chaos_service",
        p99_ttr_s=d_p99,
        p99_ttr_reduction=(n_p99 - d_p99) / n_p99 if n_p99 else 0.0,
    )
    def served_only(rep):
        ttrs = [r.ttr_s for r in rep.served]
        return float(np.percentile(ttrs, 99.0)) if ttrs else 0.0

    print(
        f"\npenalized p99 TTR: durable {d_p99:.1f} s vs naive "
        f"{n_p99:.1f} s (served-only p99: {served_only(d):.1f} vs "
        f"{served_only(n):.1f} s — the survivor bias the penalty "
        f"removes)"
    )
    assert d_p99 < n_p99


@pytest.fixture(scope="module")
def wal_recoveries(scenario):
    """Crash the journaled durable run mid-WAL; recover both ways."""
    horizon = scenario[2]
    full = ServiceJournal(snapshot_interval=16)
    _build(scenario, spread=True, recovery="resume", journal=full).run(
        horizon
    )
    crash_at = max(1, int(len(full) * 0.6))

    def recovered(mode):
        crashed = ServiceJournal(
            snapshot_interval=16, crash_at_event=crash_at
        )
        with pytest.raises(JournalCrash):
            _build(
                scenario, spread=True, recovery="resume", journal=crashed
            ).run(horizon)
        return recover_service(
            _build(scenario, spread=True, recovery="resume"),
            crashed,
            horizon_s=horizon,
            mode=mode,
        )

    return {
        "crash_at": crash_at,
        "n_events": len(full),
        "resume": recovered("resume"),
        "cold": recovered("cold"),
    }


def test_wal_resume_beats_cold_restart(
    wal_recoveries, scenario, bench_json
):
    """Same crashed journal, two recovery modes: resume dominates."""
    horizon = scenario[2]
    res, cold = wal_recoveries["resume"], wal_recoveries["cold"]
    res_avail, cold_avail = _availability(res), _availability(cold)
    res_p99 = _penalized_p99(res, horizon)
    cold_p99 = _penalized_p99(cold, horizon)
    bench_json.record(
        "chaos_service",
        recovery_availability_attainment=res_avail,
        recovery_p99_ttr_s=res_p99,
        recovery_p99_ttr_reduction=(
            (cold_p99 - res_p99) / cold_p99 if cold_p99 else 0.0
        ),
    )
    print(
        f"\nWAL crash at event {wal_recoveries['crash_at']}/"
        f"{wal_recoveries['n_events']}: resume "
        f"{100 * res_avail:.1f}% avail / p99 {res_p99:.1f} s vs cold "
        f"{100 * cold_avail:.1f}% / {cold_p99:.1f} s"
    )
    assert res_avail > cold_avail
    assert res_p99 < cold_p99
    assert (res.resilience or {}).get("wal_recoveries") == 1
    for rep in (res, cold):
        assert rep.n_served + rep.n_shed + rep.n_abandoned == rep.offered


def test_chaos_run_is_byte_stable(scenario, reports):
    """Identical stream + schedule -> identical report, twice."""
    horizon = scenario[2]
    again = _build(scenario, spread=True, recovery="resume").run(horizon)
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
        reports["durable"].to_dict(), sort_keys=True
    )
