"""Makespan prediction for a plan: :class:`PlanChoice` -> the predictor.

The closed-form model itself is
:func:`repro.perf.analytic.predict_interval` — the one twin of the
executed solver, heterogeneity- and unbalance-aware.  This module only
resolves a plan's choice (node subset, algorithm names, nc split,
schedule) into that function's geometry and rejects choices that could
not be dispatched.
"""

from __future__ import annotations

from repro.cgyro.params import CgyroInput
from repro.errors import PlanError
from repro.grid.decomp import Decomposition
from repro.machine.model import MachineModel
from repro.perf.analytic import IntervalPrediction, predict_interval
from repro.plan.artifact import PlanChoice
from repro.vmpi.algorithms import AllreduceAlgorithm, AlltoallAlgorithm

#: What :func:`predict_plan_interval` returns.
PlanPrediction = IntervalPrediction


def algorithms_of(choice: PlanChoice):
    """Resolve the plan's algorithm names to the vmpi enums."""
    resolved = []
    for kind, enum, name in (
        ("allreduce", AllreduceAlgorithm, choice.allreduce),
        ("alltoall", AlltoallAlgorithm, choice.alltoall),
    ):
        try:
            resolved.append(enum(name))
        except ValueError as exc:
            raise PlanError(
                f"unknown {kind} algorithm {name!r} "
                f"(choose from {[a.value for a in enum]})"
            ) from exc
    return tuple(resolved)


def predict_plan_interval(
    inp: CgyroInput, machine: MachineModel, choice: PlanChoice
) -> PlanPrediction:
    """Predicted wall time of one reporting interval under ``choice``.

    ``machine`` is the *whole* planning machine; the job is modeled on
    ``machine.submachine(choice.nodes)`` with block placement, exactly
    how :class:`~repro.campaign.runner.CampaignRunner` dispatches it.
    """
    sub = machine.submachine(choice.nodes)
    if choice.n_ranks > sub.n_ranks:
        raise PlanError(
            f"plan needs {choice.n_ranks} ranks but its {choice.n_nodes} "
            f"node(s) host only {sub.n_ranks}"
        )
    dims = inp.grid_dims()
    decomp = Decomposition.choose(dims, choice.ranks_per_member)
    counts = choice.nc_counts
    group = choice.k * decomp.n_proc_1
    if counts is not None and (
        len(counts) != group or sum(counts) != dims.nc or min(counts) < 1
    ):
        raise PlanError(
            f"nc_counts must be {group} positive entries summing to "
            f"nc={dims.nc}, got {counts}"
        )
    ar_algo, a2a_algo = algorithms_of(choice)
    return predict_interval(
        inp,
        sub,
        decomp,
        choice.k,
        allreduce=ar_algo,
        alltoall=a2a_algo,
        nc_counts=counts,
        overlap=choice.overlap,
    )
