"""The planner: search the design space, emit a Plan, validate it.

``Planner.plan(seed)`` is the entry point.  At small scale every base
candidate is evaluated (method ``exhaustive``); beyond
``EXHAUSTIVE_LIMIT`` the base geometries are scanned with default
algorithms and the best is refined by the seeded annealer (method
``anneal``), whose nc-shift moves discover the fine-grained unbalanced
splits enumeration cannot cover.  Both paths are fully deterministic
for a given (machine, input, n_members, seed).

``validate_plan`` then *runs* the planned job on the virtual machine —
the same :class:`~repro.xgyro.driver.XgyroEnsemble` dispatch the
campaign layer uses — and reports the predicted-vs-actual makespan
error, the honesty check every emitted plan carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cgyro.params import CgyroInput
from repro.errors import PlanError
from repro.grid.decomp import Decomposition
from repro.machine.model import MachineModel
from repro.plan.anneal import anneal
from repro.plan.artifact import Plan, PlanChoice
from repro.plan.predict import algorithms_of, predict_plan_interval
from repro.perf.memory import shard_fit
from repro.plan.space import enumerate_candidates, feasible_geometries
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble


#: Candidate count up to which every base candidate is evaluated;
#: above it only the default-algorithm geometries are scanned.
EXHAUSTIVE_LIMIT = 512

#: Move budget of the annealer that refines the scan's winner.
ANNEAL_ITERATIONS = 400


def member_inputs(inp: CgyroInput, k: int) -> List[CgyroInput]:
    """k sweep variants of ``inp`` that legally share one cmat.

    Members differ only in the temperature-gradient drive (a sweep
    parameter, invisible to the cmat signature) and their name — the
    parameter-scan shape the paper's ensembles run.
    """
    if k < 1:
        raise PlanError(f"k must be >= 1, got {k}")
    return [
        inp.with_updates(
            name=f"{inp.name}.m{m}",
            dlntdr=tuple(v + 0.01 * m for v in inp.dlntdr),
        )
        for m in range(k)
    ]


def max_shard_points(
    machine: MachineModel, inp: CgyroInput, decomp: Decomposition
) -> int:
    """Largest shard (in configuration points) one rank can hold.

    Binary search over the ledger probe the packer uses; this is
    the cap the annealer's unbalancing moves must respect so a tuned
    plan can never OOM at dispatch.
    """
    nc = inp.grid_dims().nc
    if shard_fit(machine, inp, decomp, 1) is None:
        return 0
    lo, hi = 1, nc
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if shard_fit(machine, inp, decomp, mid) is not None:
            lo = mid
        else:
            hi = mid - 1
    return lo


class Planner:
    """Searches (k, nodes, algorithms, nc split) for one request group.

    Parameters
    ----------
    machine:
        The whole (possibly heterogeneous) machine.
    inp:
        The representative member input (members of the planned jobs
        are sweep variants of it; the cmat signature is shared).
    n_members:
        Total members to serve.  The objective is
        ``rounds(k) * predicted interval makespan`` — a smaller-k plan
        pays for its extra sequential rounds.
    """

    def __init__(
        self, machine: MachineModel, inp: CgyroInput, n_members: int
    ) -> None:
        if n_members < 1:
            raise PlanError(f"n_members must be >= 1, got {n_members}")
        self.machine = machine
        self.inp = inp
        self.n_members = int(n_members)
        self._n_evaluated = 0

    # ------------------------------------------------------------------
    def rounds(self, k: int) -> int:
        """Sequential jobs of size k serving all members."""
        return -(-self.n_members // k)

    def evaluate(self, choice: PlanChoice) -> Optional[float]:
        """Objective (rounds x interval makespan), None when infeasible."""
        self._n_evaluated += 1
        try:
            decomp = Decomposition.choose(
                self.inp.grid_dims(), choice.ranks_per_member
            )
            if choice.nc_counts is not None and shard_fit(
                self.machine, self.inp, decomp, max(choice.nc_counts)
            ) is None:
                return None
            pred = predict_plan_interval(self.inp, self.machine, choice)
        except PlanError:
            return None
        return self.rounds(choice.k) * pred.makespan

    def default_choice(self) -> PlanChoice:
        """The hand-chosen baseline: what the packer does untuned.

        Greedy maximal k, smallest feasible node count, the leading
        nodes, balanced split, default algorithms — exactly
        :meth:`repro.campaign.packer.CampaignPacker.split` on this
        request group.
        """
        for k in range(self.n_members, 0, -1):
            geoms = feasible_geometries(self.machine, self.inp, k)
            if not geoms:
                continue
            n_nodes, decomp = geoms[0]  # smallest node count
            return PlanChoice(
                k=k,
                n_nodes=n_nodes,
                nodes=tuple(range(n_nodes)),
                ranks_per_member=decomp.n_proc,
                allreduce="ring",
                alltoall="pairwise",
                nc_counts=None,
            )
        raise PlanError(
            f"no feasible geometry for {self.inp.name!r} on "
            f"{self.machine.name} (even k=1)"
        )

    # ------------------------------------------------------------------
    def plan(self, seed: int = 0) -> Plan:
        """Run the search and emit the tuned :class:`Plan` artifact."""
        if seed < 0:
            raise PlanError(f"seed must be >= 0, got {seed}")
        self._n_evaluated = 0
        base = list(
            enumerate_candidates(self.machine, self.inp, self.n_members)
        )
        if not base:
            raise PlanError(
                f"empty design space for {self.inp.name!r} on "
                f"{self.machine.name}"
            )
        if len(base) <= EXHAUSTIVE_LIMIT:
            # small space: score every base candidate...
            method = "exhaustive+anneal"
            start, _ = self._scan(base)
        else:
            # ...large space: scan geometries with default algorithms
            method = "anneal"
            seed_cands = [
                c for c in base if (c.allreduce, c.alltoall) == ("ring", "pairwise")
            ]
            start, _ = self._scan(seed_cands)
        # either way the seeded annealer refines the winner — its
        # nc-shift moves reach splits enumeration cannot cover
        decomp = Decomposition.choose(
            self.inp.grid_dims(), start.ranks_per_member
        )
        result = anneal(
            start,
            self.evaluate,
            seed=seed,
            machine=self.machine,
            available_nodes=range(self.machine.n_nodes),
            group=start.k * decomp.n_proc_1,
            nc=self.inp.grid_dims().nc,
            max_count_cap=max_shard_points(self.machine, self.inp, decomp),
            iterations=ANNEAL_ITERATIONS,
        )
        best, best_e = result.best, result.best_energy

        default = self.default_choice()
        default_e = self.evaluate(default)
        if default_e is None:  # pragma: no cover - default is always feasible
            raise PlanError("default choice unexpectedly infeasible")
        if best_e > default_e:
            # the tuner must never ship a plan worse than the default
            best, best_e = default, default_e
        pred = predict_plan_interval(self.inp, self.machine, best)
        default_pred = predict_plan_interval(self.inp, self.machine, default)
        return Plan(
            machine_name=self.machine.name,
            input_name=self.inp.name,
            signature_key=self.inp.cmat_signature().content_hash(),
            n_members=self.n_members,
            steps_per_report=self.inp.steps_per_report,
            choice=best,
            predicted_s=pred.makespan,
            default_predicted_s=default_pred.makespan,
            predicted_breakdown=dict(pred.categories),
            seed=int(seed),
            method=method,
            n_evaluated=self._n_evaluated,
        )

    def _scan(self, candidates):
        """Deterministic argmin over a candidate list (first wins ties)."""
        best = None
        best_e = float("inf")
        for c in candidates:
            e = self.evaluate(c)
            if e is not None and e < best_e:
                best, best_e = c, e
        if best is None:
            raise PlanError("no feasible candidate in the scanned space")
        return best, best_e


# ----------------------------------------------------------------------
# validation: really run the planned job
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanValidation:
    """Predicted-vs-actual honesty check of one choice."""

    predicted_s: float
    actual_s: float

    @property
    def error_frac(self) -> float:
        """Signed relative prediction error ((pred - actual)/actual)."""
        if self.actual_s == 0.0:
            return 0.0 if self.predicted_s == 0.0 else float("inf")
        return (self.predicted_s - self.actual_s) / self.actual_s


def run_choice(
    inp: CgyroInput,
    machine: MachineModel,
    choice: PlanChoice,
) -> float:
    """Really run one reporting interval of the chosen job geometry.

    Dispatches exactly as the campaign runner would: the submachine of
    the plan's nodes, block placement, pinned collective algorithms,
    the plan's nc split, memory enforcement on.  Returns the simulated
    wall seconds of the interval.
    """
    sub = machine.submachine(choice.nodes)
    world = VirtualWorld(sub, n_ranks=choice.n_ranks, enforce_memory=True)
    ar, a2a = algorithms_of(choice)
    world.cost_model.default_allreduce = ar
    world.cost_model.default_alltoall = a2a
    ensemble = XgyroEnsemble(
        world,
        member_inputs(inp, choice.k),
        nc_counts=choice.nc_counts,
        overlap=choice.overlap,
    )
    ensemble.run_report_interval()
    return world.elapsed()


def validate_plan(
    plan: Plan, inp: CgyroInput, machine: MachineModel
) -> PlanValidation:
    """Run the plan's top pick; report predicted-vs-actual error."""
    actual = run_choice(inp, machine, plan.choice)
    return PlanValidation(predicted_s=plan.predicted_s, actual_s=actual)


def oracle_plan(plan: Plan, inp: CgyroInput, machine: MachineModel):
    """Differential oracle on the *tuned* configuration.

    Runs one reporting interval of the planned job (unbalanced split,
    tuned nodes and all) against independent per-member baselines;
    member mode demands bit-exact state, proving the tuning is
    physics-neutral.
    """
    from repro.check.oracle import differential_oracle

    choice = plan.choice
    return differential_oracle(
        member_inputs(inp, choice.k),
        machine.submachine(choice.nodes),
        n_reports=1,
        baseline="member",
        n_ranks=choice.n_ranks,
        nc_counts=choice.nc_counts,
        overlap=choice.overlap,
    )


def render_plan_report(
    plan: Plan,
    validation: Optional[PlanValidation] = None,
    *,
    default_actual_s: Optional[float] = None,
) -> str:
    """Human-readable plan summary."""
    c = plan.choice
    lines = [
        f"plan — {plan.input_name} on {plan.machine_name} "
        f"({plan.n_members} member(s), seed {plan.seed}, {plan.method}, "
        f"{plan.n_evaluated} candidate(s) evaluated)",
        f"  choice: k={c.k} on {c.n_nodes} node(s) "
        f"{list(c.nodes)} x {c.ranks_per_member} ranks/member, "
        f"allreduce={c.allreduce}, alltoall={c.alltoall}, "
        f"overlap={c.overlap}",
    ]
    if c.nc_counts is None:
        lines.append("  nc split: balanced")
    else:
        tag = "unbalanced" if c.is_unbalanced else "balanced"
        lines.append(
            f"  nc split: {tag} {list(c.nc_counts)} "
            f"(min {min(c.nc_counts)}, max {max(c.nc_counts)})"
        )
    lines.append(
        f"  predicted interval: {plan.predicted_s:.3f} s "
        f"(default {plan.default_predicted_s:.3f} s, "
        f"predicted speedup {plan.predicted_speedup:.3f}x, "
        f"{plan.rounds} round(s))"
    )
    for cat, v in sorted(plan.predicted_breakdown.items()):
        if v > 0:
            lines.append(f"    {cat:<14s} {v:10.3f} s")
    if validation is not None:
        lines.append(
            f"  validated: {validation.actual_s:.3f} s really run "
            f"(prediction error {validation.error_frac:+.1%})"
        )
        if default_actual_s is not None and validation.actual_s > 0:
            lines.append(
                f"  tuned vs default (really run): "
                f"{default_actual_s:.3f} s -> {validation.actual_s:.3f} s "
                f"({default_actual_s / validation.actual_s:.3f}x)"
            )
    return "\n".join(lines)
