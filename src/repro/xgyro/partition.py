"""Rank partitioning and the Figure-3 communicator layout.

An XGYRO job with ``n_ranks`` total ranks and k members assigns member
m the contiguous block ``[m * n_ranks/k, (m+1) * n_ranks/k)`` —
contiguity keeps each member's small comm_1 groups intra-node under
block placement, exactly as the real launcher would.

The ensemble-wide coll communicator for toroidal group ``i2`` contains
the comm_1 groups of *all* members for that group, ordered
member-major:

    [ member 0: (i1=0..P1-1, i2),  member 1: (...),  ... ]

Communicator rank ``j`` of that group owns the j-th slice of the
ensemble nc distribution, ``nc_loc_ens = nc / (k * P1)`` configuration
points — the k-times-finer split that shrinks per-rank cmat by k.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import DecompositionError
from repro.grid.decomp import Decomposition


def partition_ranks(ranks: Sequence[int], n_members: int) -> List[Tuple[int, ...]]:
    """Split ``ranks`` into ``n_members`` equal contiguous blocks."""
    ranks = tuple(int(r) for r in ranks)
    if n_members < 1:
        raise DecompositionError(f"n_members must be >= 1, got {n_members}")
    if len(ranks) % n_members != 0:
        raise DecompositionError(
            f"{len(ranks)} ranks cannot be split into {n_members} equal members"
        )
    per = len(ranks) // n_members
    return [ranks[m * per : (m + 1) * per] for m in range(n_members)]


def ensemble_coll_ranks(
    member_ranks: Sequence[Sequence[int]], decomp: Decomposition, i2: int
) -> Tuple[int, ...]:
    """World ranks of the ensemble coll communicator for group ``i2``.

    ``member_ranks[m][local_rank]`` is member m's rank map; all members
    share the same per-member ``decomp``.
    """
    out: List[int] = []
    for ranks in member_ranks:
        if len(ranks) != decomp.n_proc:
            raise DecompositionError(
                f"member has {len(ranks)} ranks, decomposition needs {decomp.n_proc}"
            )
        out.extend(ranks[lr] for lr in decomp.group_ranks(i2))
    return tuple(out)


def ensemble_nc_counts(decomp: Decomposition, n_members: int) -> Tuple[int, ...]:
    """Balanced per-rank nc ownership over the ensemble coll group.

    The split need not be even: the first ``nc % group`` comm ranks
    own one extra configuration point.  The uneven case is what makes a
    shrink-and-recover to k-1 members (or a fresh non-power-of-two
    ensemble) possible — k-1 rarely divides nc.
    Every coll rank must own at least one point (the shared tensor is
    distributed over *all* ranks of the ensemble).
    """
    group = n_members * decomp.n_proc_1
    nc = decomp.dims.nc
    if group > nc:
        raise DecompositionError(
            f"ensemble coll group of {group} ranks exceeds nc={nc}: "
            "some ranks would own no cmat shard"
        )
    base, extra = divmod(nc, group)
    return tuple(base + (1 if j < extra else 0) for j in range(group))


def proportional_nc_counts(
    decomp: Decomposition, n_members: int, weights: Sequence[float]
) -> Tuple[int, ...]:
    """Per-rank nc ownership proportional to per-rank ``weights``.

    The deliberately *unbalanced* counterpart of
    :func:`ensemble_nc_counts`: comm rank ``j`` receives a share of nc
    proportional to ``weights[j]`` (e.g. its node's compute-speed
    multiplier), apportioned by largest remainder with an every-rank-
    owns-at-least-one-point floor.  On a heterogeneous machine this is
    what equalises per-shard ``coll_compute`` time — the lever the
    :mod:`repro.plan` autotuner searches over.  Deterministic: ties in
    the remainders break by comm-rank order.
    """
    group = n_members * decomp.n_proc_1
    nc = decomp.dims.nc
    if group > nc:
        raise DecompositionError(
            f"ensemble coll group of {group} ranks exceeds nc={nc}: "
            "some ranks would own no cmat shard"
        )
    if len(weights) != group:
        raise DecompositionError(
            f"need one weight per coll-comm rank ({group}), got {len(weights)}"
        )
    if any(w <= 0 for w in weights):
        raise DecompositionError(f"weights must be > 0, got {list(weights)}")
    total = float(sum(weights))
    # floor of 1 point per rank; apportion the rest by largest remainder
    spare = nc - group
    quotas = [spare * w / total for w in weights]
    counts = [1 + int(q) for q in quotas]
    remainders = sorted(
        range(group), key=lambda j: (-(quotas[j] - int(quotas[j])), j)
    )
    left = nc - sum(counts)
    for j in remainders[:left]:
        counts[j] += 1
    assert sum(counts) == nc
    return tuple(counts)
