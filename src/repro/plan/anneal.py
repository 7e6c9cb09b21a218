"""Deterministic seeded simulated annealing over plan choices.

Beyond exhaustive scale the planner refines its best base candidate
with a standard geometric-cooling annealer.  Everything is driven by
one ``random.Random(seed)`` instance — no global RNG, no wall-clock —
so the same seed always walks the same trajectory and the emitted plan
JSON is byte-identical across reruns (asserted by a hypothesis test).

The move set perturbs exactly the knobs the artifact carries:

- shift one configuration point of the nc split between two comm ranks
  (the fine-grained unbalancing move; weighted highest because it is
  the knob exhaustive enumeration cannot cover),
- swap one used node for an unused one,
- switch the allreduce or alltoall algorithm.

Infeasible neighbours (a shard emptied, a swap off the machine, a
shard outgrowing the memory probe) return ``None`` and cost nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from repro.machine.model import MachineModel
from repro.plan.artifact import PlanChoice
from repro.vmpi.algorithms import AllreduceAlgorithm, AlltoallAlgorithm
from repro.xgyro.partition import ensemble_nc_counts


#: Geometric cooling schedule, start to end (relative temperatures).
T_START = 0.05
T_END = 1e-3


@dataclass(frozen=True)
class AnnealResult:
    """Outcome of one annealing run."""

    best: PlanChoice
    best_energy: float
    n_evaluated: int


def neighbor(
    choice: PlanChoice,
    rng: random.Random,
    machine: MachineModel,
    *,
    available_nodes: Sequence[int],
    group: int,
    nc: int,
    max_count_cap: int,
) -> Optional[PlanChoice]:
    """One random feasible move away from ``choice`` (None = no-op)."""
    move = rng.random()
    if move < 0.6:
        # shift one nc point from comm rank a to comm rank b
        counts = list(
            choice.nc_counts
            if choice.nc_counts is not None
            else _balanced(group, nc)
        )
        a = rng.randrange(group)
        b = rng.randrange(group)
        if a == b or counts[a] <= 1 or counts[b] >= max_count_cap:
            return None
        counts[a] -= 1
        counts[b] += 1
        return replace(choice, nc_counts=tuple(counts))
    if move < 0.8:
        # swap one used node for an unused one
        unused = [n for n in available_nodes if n not in choice.nodes]
        if not unused:
            return None
        pos = rng.randrange(len(choice.nodes))
        new = unused[rng.randrange(len(unused))]
        nodes = list(choice.nodes)
        nodes[pos] = new
        return replace(choice, nodes=tuple(nodes))
    if move < 0.9:
        algos = [a.value for a in AllreduceAlgorithm if a.value != choice.allreduce]
        return replace(choice, allreduce=algos[rng.randrange(len(algos))])
    if move < 0.95:
        algos = [a.value for a in AlltoallAlgorithm if a.value != choice.alltoall]
        return replace(choice, alltoall=algos[rng.randrange(len(algos))])
    # step the overlap schedule (any mode, including the single-phase
    # ones the base enumeration skips)
    from repro.cgyro.solver import OVERLAP_MODES

    modes = [m for m in OVERLAP_MODES if m != choice.overlap]
    return replace(choice, overlap=modes[rng.randrange(len(modes))])


def _balanced(group: int, nc: int) -> List[int]:
    base, extra = divmod(nc, group)
    return [base + (1 if j < extra else 0) for j in range(group)]


def anneal(
    initial: PlanChoice,
    energy: Callable[[PlanChoice], Optional[float]],
    *,
    seed: int,
    machine: MachineModel,
    available_nodes: Sequence[int],
    group: int,
    nc: int,
    max_count_cap: int,
    iterations: int,
) -> AnnealResult:
    """Minimise ``energy`` from ``initial`` with seeded annealing.

    ``energy`` may return ``None`` for an infeasible candidate (it is
    rejected outright, still counted as evaluated).  Temperatures are
    *relative*: acceptance uses the energy delta normalised by the
    current best, so the schedule needs no knowledge of the absolute
    makespan scale.
    """
    rng = random.Random(seed)
    cur = initial
    cur_e = energy(initial)
    if cur_e is None:
        raise ValueError("anneal initial candidate must be feasible")
    best, best_e = cur, cur_e
    n_eval = 1
    for i in range(iterations):
        frac = i / max(1, iterations - 1)
        temp = T_START * (T_END / T_START) ** frac
        cand = neighbor(
            cur,
            rng,
            machine,
            available_nodes=available_nodes,
            group=group,
            nc=nc,
            max_count_cap=max_count_cap,
        )
        if cand is None:
            continue
        e = energy(cand)
        n_eval += 1
        if e is None:
            continue
        delta = (e - cur_e) / best_e
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            cur, cur_e = cand, e
            if e < best_e:
                best, best_e = cand, e
    return AnnealResult(best=best, best_energy=best_e, n_evaluated=n_eval)
