"""Collective algorithm cost formulas.

Classic alpha-beta (Hockney) cost expressions for the AllReduce and
AllToAll algorithms production MPI libraries select between — the two
collectives the model issues.  Each formula takes
the participant count ``p``, a byte count whose meaning is
collective-specific (documented per function), and an
:class:`EffectiveLink` — the latency/bandwidth/overhead triple the cost
model derived from the group's node placement.

The paper's central communication claim — "the overall cost of
AllReduce is proportional with the number of participating processes" —
corresponds to the ring algorithm (the bandwidth-optimal choice real
libraries use for the message sizes at hand), whose time carries a
``(p - 1)`` factor in both the latency and bandwidth terms.  Recursive
doubling (logarithmic) is provided for the ablation bench that contrasts
the two regimes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import CollectiveError


@dataclass(frozen=True)
class EffectiveLink:
    """Link parameters a group effectively sees.

    ``overhead_s`` is charged once per collective call and models the
    host-side staging cost of GPU-resident codes (constant in ``p``).
    """

    latency_s: float
    bandwidth_Bps: float
    overhead_s: float = 0.0


class AllreduceAlgorithm(enum.Enum):
    """AllReduce algorithm choices."""

    RING = "ring"
    RECURSIVE_DOUBLING = "recursive-doubling"
    REDUCE_BCAST = "reduce-bcast"


class AlltoallAlgorithm(enum.Enum):
    """AllToAll algorithm choices."""

    PAIRWISE = "pairwise"
    BRUCK = "bruck"


def _check(p: int, nbytes: float) -> None:
    if p < 1:
        raise CollectiveError(f"participant count must be >= 1, got {p}")
    if nbytes < 0:
        raise CollectiveError(f"byte count must be >= 0, got {nbytes}")


def _log2ceil(p: int) -> int:
    return max(0, math.ceil(math.log2(p))) if p > 1 else 0


def allreduce_cost(
    p: int,
    nbytes: float,
    link: EffectiveLink,
    algorithm: AllreduceAlgorithm = AllreduceAlgorithm.RING,
) -> float:
    """Time for an AllReduce of an ``nbytes`` message over ``p`` ranks.

    ``nbytes`` is the per-rank message size (every rank contributes and
    receives a buffer of this size).
    """
    _check(p, nbytes)
    if p == 1:
        return link.overhead_s
    a, b, o = link.latency_s, nbytes / link.bandwidth_Bps, link.overhead_s
    if algorithm is AllreduceAlgorithm.RING:
        # reduce-scatter + allgather, each (p-1) steps of nbytes/p.
        return o + 2.0 * (p - 1) * a + 2.0 * b * (p - 1) / p
    if algorithm is AllreduceAlgorithm.RECURSIVE_DOUBLING:
        steps = _log2ceil(p)
        return o + steps * (a + b)
    if algorithm is AllreduceAlgorithm.REDUCE_BCAST:
        steps = _log2ceil(p)
        return o + 2.0 * steps * (a + b)
    raise AssertionError(f"unhandled algorithm {algorithm}")


def alltoall_cost(
    p: int,
    nbytes: float,
    link: EffectiveLink,
    algorithm: AlltoallAlgorithm = AlltoallAlgorithm.PAIRWISE,
) -> float:
    """Time for an AllToAll where each rank sends ``nbytes`` in total.

    ``nbytes`` is the per-rank aggregate send volume (summed over all
    destinations); for uneven (vector) exchanges callers pass the
    maximum over ranks, which is what bounds completion.
    """
    _check(p, nbytes)
    if p == 1:
        return link.overhead_s
    a, o = link.latency_s, link.overhead_s
    if algorithm is AlltoallAlgorithm.PAIRWISE:
        # p-1 exchange rounds, each moving one destination's share.
        moved = nbytes * (p - 1) / p
        return o + (p - 1) * a + moved / link.bandwidth_Bps
    if algorithm is AlltoallAlgorithm.BRUCK:
        steps = _log2ceil(p)
        return o + steps * (a + (nbytes / 2.0) / link.bandwidth_Bps)
    raise AssertionError(f"unhandled algorithm {algorithm}")
