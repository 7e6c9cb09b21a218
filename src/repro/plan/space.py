"""The autotuner's design space: feasible geometries and their knobs.

A candidate is a :class:`~repro.plan.artifact.PlanChoice`; the space
spans

- the ensemble size ``k`` (1..n_members — fewer members per job means
  more sequential rounds, the sharing-vs-footprint tradeoff);
- the node count and the *specific* node subset (on a heterogeneous
  machine, which nodes a job gets dominates its makespan);
- the collective algorithm pair (allreduce x alltoall);
- the nc split of the shared tensor: balanced, or speed-proportional
  (the deliberately *unbalanced* split of Jackson/Hein/Roach applied to
  per-node speed asymmetry);
- the step schedule: blocking (``overlap="off"``) vs the pipelined
  nonblocking schedules (:data:`~repro.plan.space.OVERLAP_OPTIONS`)
  that hide collective cost under compute.

Feasibility is :func:`repro.perf.memory.feasible_shapes`, the scan
:meth:`repro.campaign.packer.CampaignPacker.shape_for` takes its first
hit from — so every candidate the planner emits is launchable by the
packer unchanged.  All enumeration orders are deterministic.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.cgyro.params import CgyroInput
from repro.grid.decomp import Decomposition
from repro.machine.model import MachineModel
from repro.perf.memory import feasible_shapes
from repro.plan.artifact import PlanChoice
from repro.vmpi.algorithms import AllreduceAlgorithm, AlltoallAlgorithm
from repro.xgyro.partition import ensemble_nc_counts, proportional_nc_counts

#: Algorithm pairs enumerated per geometry, defaults first.
ALGORITHM_PAIRS: Tuple[Tuple[str, str], ...] = tuple(
    (ar.value, a2a.value)
    for ar in AllreduceAlgorithm
    for a2a in AlltoallAlgorithm
)

#: Overlap schedules enumerated per candidate: blocking first (the
#: stable tie-break — a schedule only wins by being strictly faster),
#: then the everything-pipelined mode.  The single-phase modes
#: ("str"/"coll") are dominated by "full" in modeled cost, so the base
#: enumeration skips them; the annealer may still step through them.
OVERLAP_OPTIONS: Tuple[str, ...] = ("off", "full")

#: Contiguous node windows tried per node count on a large machine.
MAX_WINDOWS = 8


def feasible_geometries(
    machine: MachineModel,
    inp: CgyroInput,
    k: int,
) -> List[Tuple[int, Decomposition]]:
    """All feasible ``(n_nodes, decomp)`` pairs for a k-member job.

    Memory is probed with the *balanced* worst-case shard; unbalanced
    candidates re-probe with their own ceiling at evaluation time.
    """
    return [
        (n, d) for n, d, _ in feasible_shapes(machine, inp, k, machine.n_nodes)
    ]


def node_subsets(machine: MachineModel, n_nodes: int) -> List[Tuple[int, ...]]:
    """Deterministic candidate node subsets of size ``n_nodes``.

    Always includes the packer's default (the first ``n_nodes``
    nodes) and the fastest-first pick (stable sort by
    descending speed, then bandwidth, then id).  On small machines all
    contiguous windows are added; on large ones, ``MAX_WINDOWS`` evenly
    spread offsets.  The annealer explores beyond these via node swaps.
    """
    avail = list(range(machine.n_nodes))
    if n_nodes > len(avail):
        return []
    subsets: List[Tuple[int, ...]] = []

    def add(nodes: Tuple[int, ...]) -> None:
        if nodes not in subsets:
            subsets.append(nodes)

    add(tuple(avail[:n_nodes]))  # packer default: the leading run
    by_quality = sorted(
        avail,
        key=lambda n: (
            -machine.speed_of(n),
            -machine.bandwidth_factor_of(n),
            n,
        ),
    )
    add(tuple(sorted(by_quality[:n_nodes])))
    n_offsets = len(avail) - n_nodes + 1
    if n_offsets <= MAX_WINDOWS:
        offsets: Sequence[int] = range(n_offsets)
    else:
        stride = (n_offsets - 1) / (MAX_WINDOWS - 1)
        offsets = sorted({round(i * stride) for i in range(MAX_WINDOWS)})
    for off in offsets:
        add(tuple(avail[off : off + n_nodes]))
    return subsets


def coll_rank_weights(
    machine: MachineModel,
    nodes: Sequence[int],
    decomp: Decomposition,
    k: int,
) -> List[float]:
    """Per-coll-comm-rank speed weights for a proportional nc split.

    The shard-size vector is shared by every toroidal group, but comm
    rank ``j = m * P1 + i1`` maps to a *different* world rank (hence
    possibly node) per group — so each slot is weighted by the slowest
    speed it sees across groups, the conservative choice that never
    over-feeds a slot which is slow in any group.
    """
    rpn = machine.ranks_per_node
    per_member = decomp.n_proc
    weights: List[float] = []
    for m in range(k):
        for i1 in range(decomp.n_proc_1):
            worst = min(
                machine.speed_of(
                    nodes[(m * per_member + decomp.local_rank_of(i1, i2)) // rpn]
                )
                for i2 in range(decomp.n_proc_2)
            )
            weights.append(worst)
    return weights


def nc_count_options(
    machine: MachineModel,
    nodes: Sequence[int],
    decomp: Decomposition,
    k: int,
) -> List[Optional[Tuple[int, ...]]]:
    """Initial nc-split candidates: balanced, then speed-proportional
    (only when it differs)."""
    options: List[Optional[Tuple[int, ...]]] = [None]
    weights = coll_rank_weights(machine, nodes, decomp, k)
    if len(set(weights)) > 1:
        prop = proportional_nc_counts(decomp, k, weights)
        if prop != ensemble_nc_counts(decomp, k):
            options.append(prop)
    return options


def enumerate_candidates(
    machine: MachineModel,
    inp: CgyroInput,
    n_members: int,
) -> Iterator[PlanChoice]:
    """Yield every base candidate, in deterministic order.

    Larger k first (the paper's maximal-sharing preference makes the
    expected winner an early, stable tie-break); blocking schedule
    before overlapped, so an overlapped plan only wins by being
    strictly faster.
    """
    for k in range(n_members, 0, -1):
        for n_nodes, decomp in feasible_geometries(machine, inp, k):
            for nodes in node_subsets(machine, n_nodes):
                for counts in nc_count_options(machine, nodes, decomp, k):
                    for ar, a2a in ALGORITHM_PAIRS:
                        for overlap in OVERLAP_OPTIONS:
                            yield PlanChoice(
                                k=k,
                                n_nodes=n_nodes,
                                nodes=nodes,
                                ranks_per_member=decomp.n_proc,
                                allreduce=ar,
                                alltoall=a2a,
                                nc_counts=counts,
                                overlap=overlap,
                            )
