"""Closed-form cost predictions: the one twin of the executed solver.

:func:`predict_interval` mirrors, in algebra, exactly what the solver
charges — the same collective counts, message sizes and flop formulas
(all read from :class:`repro.cgyro.costs.KernelCosts`, the sheet the
solver itself charges from) and the same placement-derived link
parameters — evaluated per member / per toroidal group / per shard on
the job's machine:

    interval ≈ steps x [ max_m (str_m + nl_m)           (member phases)
                         + max_g coll_comm_g            (ensemble sync)
                         + max_j coll_compute_j ]       (shard apply)
               + max_m diag_m                           (once/interval)

On a homogeneous machine with balanced shards every max degenerates to
the common value.  On a heterogeneous machine the maxima express the
straggler effects the autotuner exploits: a slow node gates ``str``,
and a balanced shard map makes its shard gate ``coll_compute`` — unless
the plan shrinks it.

:func:`predict_cgyro_interval` / :func:`predict_xgyro_interval` (and
:func:`repro.plan.predict.predict_plan_interval`) are adapters over it.
Tests assert that the predictions match the executed simulator, which
pins both against drift.  Benchmarks use the analytic path when they
need to sweep a large design space quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.cgyro.costs import KernelCosts
from repro.cgyro.params import CgyroInput
from repro.collision.cmat import apply_flops
from repro.grid.decomp import Decomposition
from repro.machine.model import MachineModel
from repro.machine.placement import BlockPlacement
from repro.vmpi.algorithms import AllreduceAlgorithm, AlltoallAlgorithm
from repro.vmpi.cost import CommCostModel
from repro.xgyro.partition import ensemble_nc_counts


@dataclass
class IntervalPrediction:
    """Predicted per-interval wall time and its category breakdown.

    Categories carry the *gating* (max) value per phase, so their sum
    equals :attr:`makespan` — the serial phase chain the lockstep
    ensemble executes.  ``nl`` is the gating member's whole nl phase;
    :attr:`nl_comm_s` is the communication share of it.  Under an
    overlapped schedule the comm categories hold only the *exposed*
    remainder; the hidden portion is reported separately in
    :attr:`overlapped_s` (informational — it occupies no extra
    timeline, so it is never part of the sum).
    """

    categories: Dict[str, float] = field(default_factory=dict)
    nl_comm_s: float = 0.0
    overlapped_s: float = 0.0

    @property
    def makespan(self) -> float:
        """Predicted wall seconds of one reporting interval."""
        return sum(self.categories.values())


def predict_interval(
    inp: CgyroInput,
    machine: MachineModel,
    decomp: Decomposition,
    k: int,
    *,
    allreduce: AllreduceAlgorithm = AllreduceAlgorithm.RING,
    alltoall: AlltoallAlgorithm = AlltoallAlgorithm.PAIRWISE,
    nc_counts: Optional[Sequence[int]] = None,
    overlap: str = "off",
) -> IntervalPrediction:
    """Predicted reporting interval of ``k`` members sharing one cmat.

    ``machine`` is the job's machine (for a placed job, the
    :meth:`~repro.machine.model.MachineModel.submachine` of its nodes);
    member ``m`` runs ``decomp`` on the block-placed ranks
    ``[m * decomp.n_proc, (m + 1) * decomp.n_proc)``, exactly how the
    XGYRO driver lays an ensemble out.  ``nc_counts`` is the per-coll-
    rank split of the shared tensor (default: balanced) and ``overlap``
    the step schedule.  A plain CGYRO run is the ``k = 1`` case.
    """
    dims = decomp.dims
    per_member = decomp.n_proc
    counts = nc_counts if nc_counts is not None else ensemble_nc_counts(decomp, k)
    placement = BlockPlacement(machine, k * per_member)
    cm = CommCostModel(
        machine, placement, default_allreduce=allreduce, default_alltoall=alltoall
    )

    def rate(ranks: Sequence[int]) -> float:
        """Flop rate of the slowest of ``ranks`` (it gates the group)."""
        return machine.flops_per_rank * min(
            machine.speed_of(placement.node_of(r)) for r in ranks
        )

    kc = KernelCosts.of(inp, decomp)
    steps = inp.steps_per_report
    n_chunks = len(kc.chunks)
    solves = 5 if inp.nonlinear else 4  # one per RK stage (+ nl's own)
    str_over = overlap in ("str", "full")
    coll_over = overlap in ("coll", "full")

    # ---- member phases: each member's worst group gates it ----------
    str_flops = (
        4 * kc.rhs_flops
        + solves * (kc.moment_flops + kc.field_solve_flops)
        + kc.rk_combine_flops
    )
    diag_flops = kc.diag_flops + kc.moment_flops + kc.field_solve_flops
    str_comm = str_compute = str_hidden = nl_total = nl_comm = diag = 0.0
    for m in range(k):
        sim_ranks = range(m * per_member, (m + 1) * per_member)
        # str: per toroidal (comm_1) group
        worst_comm = worst_total = worst_hidden = worst_ar = 0.0
        for i2 in range(decomp.n_proc_2):
            g_ranks = [sim_ranks[lr] for lr in decomp.group_ranks(i2)]
            ar_cost = cm.collective_cost("allreduce", g_ranks, kc.moment_bytes)
            g_rate = rate(g_ranks)
            compute = str_flops / g_rate
            hidden = 0.0
            if str_over:
                # one aggregated all-moments AllReduce per chunk, each
                # (except the last) hidden under the next chunk's
                # moment partials
                c_agg = cm.collective_cost(
                    "allreduce", g_ranks, kc.n_moments * kc.moment_bytes
                )
                chunk_comp = (kc.moment_flops / n_chunks) / g_rate
                hidden = solves * (n_chunks - 1) * min(c_agg, chunk_comp)
                comm = solves * n_chunks * c_agg - hidden
            else:
                comm = solves * n_chunks * kc.n_moments * ar_cost
            if comm + compute > worst_total:
                worst_total = comm + compute
                worst_comm = comm
                worst_hidden = hidden
            worst_ar = max(worst_ar, ar_cost)
        str_comm = max(str_comm, worst_comm)
        str_compute = max(str_compute, worst_total - worst_comm)
        str_hidden = max(str_hidden, worst_hidden)
        # nl: per comm_2 group
        if inp.nonlinear:
            for i1 in range(decomp.n_proc_1):
                g_ranks = [sim_ranks[lr] for lr in decomp.cross_group_ranks(i1)]
                a2a = cm.collective_cost("alltoall", g_ranks, kc.block_bytes)
                phi = cm.collective_cost("alltoall", g_ranks, kc.moment_bytes)
                total = 2 * a2a + phi + kc.nl_flops / rate(g_ranks)
                if total > nl_total:
                    nl_total, nl_comm = total, 2 * a2a + phi
        # diagnostics: once per interval, concurrent across members
        diag = max(
            diag,
            n_chunks * kc.n_moments * worst_ar
            + cm.collective_cost("allreduce", sim_ranks, 2 * dims.nt * 8)
            + diag_flops / rate(sim_ranks),
        )

    # ---- coll phase: ensemble-wide, every group syncs every step -----
    coll_comm = coll_compute = coll_hidden = 0.0
    for i2 in range(decomp.n_proc_2):
        e_ranks = [
            m * per_member + lr for m in range(k) for lr in decomp.group_ranks(i2)
        ]
        t_apply = max(
            k * apply_flops(counts[j], decomp.nt_loc, dims.nv) / rate([r])
            for j, r in enumerate(e_ranks)
        )
        if coll_over and min(counts) >= 2:
            # T sub-exchanges per direction over chunked ic rows, all
            # forwards posted up front and inverses waited at scatter:
            # only the head forward and tail inverse windows are
            # exposed, the other 2T-2 hide under the chunked applies
            T = min(4, min(counts))
            c_sub = cm.collective_cost("alltoall", e_ranks, kc.block_bytes // T)
            hidden_g = (2 * T - 2) * min(c_sub, t_apply / T)
            comm_g = 2 * T * c_sub - hidden_g
        else:
            hidden_g = 0.0
            comm_g = 2 * cm.collective_cost("alltoall", e_ranks, kc.block_bytes)
        if comm_g > coll_comm:
            coll_comm = comm_g
            coll_hidden = hidden_g
        coll_compute = max(coll_compute, t_apply)

    return IntervalPrediction(
        {
            "str_comm": steps * str_comm,
            "str_compute": steps * str_compute,
            "nl": steps * nl_total,
            "coll_comm": steps * coll_comm,
            "coll_compute": steps * coll_compute,
            "diag": diag,
        },
        nl_comm_s=steps * nl_comm,
        overlapped_s=steps * (str_hidden + coll_hidden),
    )


@dataclass
class AnalyticBreakdown:
    """Predicted per-reporting-interval times by category (seconds)."""

    categories: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Sum over categories (serial-phase solver: wall = sum)."""
        return sum(self.categories.values())

    @property
    def str_comm(self) -> float:
        """Streaming communication time."""
        return self.categories.get("str_comm", 0.0)


def predict_xgyro_interval(
    inputs_count: int,
    inp: CgyroInput,
    machine: MachineModel,
    total_ranks: int,
) -> AnalyticBreakdown:
    """Wall-clock prediction for an XGYRO ensemble reporting interval:
    ``inputs_count`` members, default algorithms, balanced shards and
    the blocking schedule on the first ``total_ranks`` ranks of
    ``machine``, by the solver's own categories."""
    decomp = Decomposition.choose(inp.grid_dims(), total_ranks // inputs_count)
    pred = predict_interval(inp, machine, decomp, inputs_count)
    cats = pred.categories
    return AnalyticBreakdown(
        {
            "str_comm": cats["str_comm"],
            "str_compute": cats["str_compute"],
            "nl_comm": pred.nl_comm_s,
            "nl_compute": cats["nl"] - pred.nl_comm_s,
            "coll_comm": cats["coll_comm"],
            "coll_compute": cats["coll_compute"],
            "diag": cats["diag"],
        }
    )


def predict_cgyro_interval(
    inp: CgyroInput, machine: MachineModel, n_ranks: int
) -> AnalyticBreakdown:
    """Per-reporting-interval cost of one plain CGYRO simulation — the
    one-member ensemble."""
    return predict_xgyro_interval(1, inp, machine, n_ranks)
