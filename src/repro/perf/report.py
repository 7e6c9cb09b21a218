"""The Figure-2 comparison harness.

Runs the same set of inputs two ways on the same virtual machine —

- sequentially with CGYRO, each simulation on the full machine
  (wall times add), and
- as an XGYRO ensemble (one job, members concurrent, shared cmat) —

and reports the per-reporting-step timing breakdown of both, exactly
the quantity the paper's Figure 2 plots.  Because the simulated clock
is deterministic and per-step costs are stationary, a short measured
run can be *exactly* extrapolated to the preset's full reporting
cadence; ``measure_steps`` controls the executed step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import InputError
from repro.collision.cmat import live_stores
from repro.cgyro.params import CgyroInput
from repro.cgyro.timing import ReportRow, sum_rows
from repro.machine.model import MachineModel
from repro.vmpi.world import VirtualWorld
from repro.xgyro.baseline import SequentialCgyroBaseline
from repro.xgyro.driver import XgyroEnsemble


def _scale_row(row: ReportRow, factor: float) -> ReportRow:
    """Extrapolate a measured interval to the full reporting cadence.

    Per-step phase costs are stationary, so every category scales
    linearly with the step count — except diagnostics, which run once
    per reporting interval regardless.  The wall is re-derived as the
    category sum (phases serialise in lockstep, so the two agree).
    """
    cats = {
        k: v * (1.0 if k == "diag" else factor)
        for k, v in row.categories.items()
    }
    return ReportRow(
        step=row.step,
        time=row.time,
        wall_s=sum(cats.values()),
        categories=cats,
        flux=row.flux,
        phi2=row.phi2,
    )


@dataclass
class Figure2Result:
    """Both sides of the Figure-2 comparison, per reporting step."""

    cgyro_rows: List[ReportRow]
    cgyro_sum: ReportRow
    xgyro_rows: List[ReportRow]
    xgyro: ReportRow
    n_members: int
    steps_per_report: int
    measured_steps: int

    @property
    def speedup(self) -> float:
        """CGYRO-sequential wall over XGYRO wall (paper: ~1.5x)."""
        return self.cgyro_sum.wall_s / self.xgyro.wall_s

    @property
    def str_comm_reduction(self) -> float:
        """CGYRO-sum str comm over XGYRO str comm (paper: ~145/33)."""
        return self.cgyro_sum.str_comm_s / self.xgyro.str_comm_s


def figure2_comparison(
    inputs: Sequence[CgyroInput],
    machine: MachineModel,
    *,
    measure_steps: int = 2,
    enforce_memory: bool = False,
) -> Figure2Result:
    """Run the two execution modes and assemble the comparison.

    ``measure_steps`` steps are executed per simulation; results are
    extrapolated to each input's ``steps_per_report`` (the simulated
    per-step cost is stationary, so this is exact up to the one-off
    diagnostics cost).
    """
    if len(inputs) == 0:
        raise InputError("figure2_comparison needs at least one input")
    if measure_steps < 1:
        raise InputError("measure_steps must be >= 1")
    full_steps = inputs[0].steps_per_report
    factor = full_steps / measure_steps
    short_inputs = [
        inp.with_updates(steps_per_report=measure_steps) for inp in inputs
    ]

    # the baseline's simulations are released before the ensemble is
    # built, so the two never hold host memory at once; its cmat store is
    # held for the ensemble, which shares its signature
    baseline = SequentialCgyroBaseline(machine, short_inputs, enforce_memory=enforce_memory)
    baseline_rows, stores = baseline.run_interval(), live_stores()  # noqa: F841 -- held, not read
    del baseline
    cgyro_rows = [_scale_row(r, factor) for r in baseline_rows]
    cgyro_sum = sum_rows(cgyro_rows)
    assert cgyro_sum is not None

    world = VirtualWorld(machine, enforce_memory=enforce_memory)
    ensemble = XgyroEnsemble(world, short_inputs)
    report = ensemble.run_report_interval()
    xgyro_rows = [_scale_row(r, factor) for r in report.member_rows]
    xgyro = _scale_row(report.ensemble, factor)

    return Figure2Result(
        cgyro_rows=cgyro_rows,
        cgyro_sum=cgyro_sum,
        xgyro_rows=xgyro_rows,
        xgyro=xgyro,
        n_members=len(inputs),
        steps_per_report=full_steps,
        measured_steps=measure_steps,
    )


def render_figure2(result: Figure2Result, *, paper: Optional[Dict[str, float]] = None) -> str:
    """Text rendering of the Figure-2 bars.

    ``paper`` may carry the published numbers
    (``{"cgyro_total": 375, "xgyro_total": 250, ...}``) to print
    alongside.
    """
    cats = ["str_comm", "coll_comm", "nl_comm", "str_compute", "nl_compute",
            "coll_compute", "diag"]
    lines = [
        f"Figure 2 — {result.n_members} simulations, seconds per reporting "
        f"step ({result.steps_per_report} time steps; measured "
        f"{result.measured_steps}, extrapolated)",
        f"{'category':<14s} {'CGYRO sum':>12s} {'XGYRO':>12s}",
    ]
    for c in cats:
        a = result.cgyro_sum.categories.get(c, 0.0)
        b = result.xgyro.categories.get(c, 0.0)
        if a == 0.0 and b == 0.0:
            continue
        lines.append(f"{c:<14s} {a:>12.2f} {b:>12.2f}")
    lines.append(
        f"{'comm total':<14s} {result.cgyro_sum.comm_s:>12.2f} "
        f"{result.xgyro.comm_s:>12.2f}"
    )
    lines.append(
        f"{'TOTAL':<14s} {result.cgyro_sum.wall_s:>12.2f} "
        f"{result.xgyro.wall_s:>12.2f}"
    )
    lines.append(
        f"speedup: {result.speedup:.2f}x   str-comm reduction: "
        f"{result.str_comm_reduction:.2f}x"
    )
    if paper:
        lines.append(
            "paper:    total 375 vs 250 (1.50x), str comm 145 vs 33 (4.39x)"
        )
    return "\n".join(lines)


def render_campaign_report(report) -> str:
    """Text rendering of a campaign run's service-level accounting.

    ``report`` is a :class:`~repro.campaign.report.CampaignReport`.  All
    quantities are simulated seconds.
    """
    lines = [
        f"campaign on {report.machine_name} "
        f"({report.machine_n_nodes} nodes) — "
        f"{report.n_completed} request(s) completed in {report.n_jobs} "
        f"job(s), mean k {report.mean_k:.1f}",
        f"{'makespan':<26s} {report.makespan_s:>12.3f} s",
        f"{'throughput':<26s} {report.throughput_member_steps_per_s:>12.1f}"
        " member-steps/s",
        f"{'node utilisation':<26s} {report.node_utilisation:>12.1%}",
        f"{'peak cmat per rank':<26s} "
        f"{report.peak_cmat_bytes_per_rank:>12d} B",
    ]
    pct = report.latency_percentiles
    if pct:
        lines.append(
            f"{'queue latency p50/p90/p99':<26s} "
            + " / ".join(f"{pct[k]:.3f}" for k in ("p50", "p90", "p99"))
            + " s"
        )
    if report.n_requeued:
        lines.append(
            f"{'requeued after faults':<26s} {report.n_requeued:>12d}"
        )
    if report.n_abandoned:
        lines.append(
            f"{'abandoned (dead-letter)':<26s} {report.n_abandoned:>12d}"
        )
        for a in report.abandoned:
            lines.append(
                f"  {a.request_id}: {a.attempts} attempt(s), "
                f"last {a.last_job_id} — {a.reason}"
            )
    if report.imposed_wait_s:
        lines.append(
            f"{'imposed straggler wait':<26s} {report.imposed_wait_s:>12.3f} s"
        )
    if report.quarantined_nodes:
        lines.append(
            f"{'quarantined nodes':<26s} "
            + ", ".join(str(n) for n in report.quarantined_nodes)
        )
        for w in report.quarantine_windows:
            lines.append(
                f"  node {int(w['node'])}: quarantined "
                f"{w['start_s']:.3f} s -> {w['end_s']:.3f} s"
            )
    if report.cache:
        c = report.cache
        lines.append(
            f"{'cmat cache':<26s} {int(c['hits']):>5d} hit(s) / "
            f"{int(c['misses'])} miss(es) ({c['hit_rate']:.0%}), "
            f"{c['seconds_saved']:.3f} s of assembly saved, "
            f"{int(c['evictions'])} eviction(s)"
        )
        if c.get("integrity_failures"):
            lines.append(
                f"{'cache integrity failures':<26s} "
                f"{int(c['integrity_failures']):>12d}"
            )
    if report.waves:
        lines.append(
            f"{'wave':>4s} {'rnd':>3s} {'start':>9s} {'end':>9s} "
            f"{'jobs':>4s} {'nodes busy':>10s}"
        )
        for w in report.waves:
            lines.append(
                f"{w.wave:>4d} {w.round:>3d} {w.start_s:>9.3f} "
                f"{w.end_s:>9.3f} {w.n_jobs:>4d} {w.nodes_busy:>10d}"
            )
    if report.jobs:
        lines.append(
            f"{'job':<8s} {'rnd':>3s} {'wave':>4s} {'k':>3s} {'nodes':>5s} "
            f"{'steps':>5s} {'start':>9s} {'elapsed':>9s} {'cmat':>6s} "
            f"{'lost':>4s}"
        )
        for j in report.jobs:
            lines.append(
                f"{j.job_id:<8s} {j.round:>3d} {j.wave:>4d} {j.k:>3d} "
                f"{j.n_nodes:>5d} {j.steps:>5d} {j.start_s:>9.3f} "
                f"{j.elapsed_s:>9.3f} "
                f"{'hit' if j.cache_hit else 'build':>6s} "
                f"{len(j.lost_request_ids):>4d}"
            )
    return "\n".join(lines)


def render_recovery_report(result) -> str:
    """Text rendering of a resilient run's cost accounting.

    ``result`` is a :class:`~repro.resilience.runner.RunResult`: the run
    line, the crash-recovery share of elapsed time, then its
    :class:`~repro.resilience.ledger.RecoveryLedger` table, which states
    every count and cost once.  All quantities are simulated seconds.
    """
    ledger = result.ledger
    lines = [
        f"resilient run — {result.steps} steps, "
        f"{len(result.member_labels_initial)} -> {len(result.member_labels)} "
        f"members, {len(ledger)} recoveries",
        f"{'elapsed':<22s} {result.elapsed_s:>12.3f} s",
    ]
    if len(ledger):
        share = ledger.recovery_overhead_s / result.elapsed_s if result.elapsed_s > 0 else 0.0
        lines.append(f"{'recovery overhead':<22s} {share:>12.1%} of elapsed")
    lines.append(ledger.render())
    return "\n".join(lines)
