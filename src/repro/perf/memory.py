"""Memory-budget arithmetic.

Quantifies the two memory claims of the paper:

- "for the benchmark input nl03c the constant cmat is 10x the size of
  all the other memory buffers combined" —
  :func:`cmat_dominance_ratio`;
- "a single CGYRO simulation does require at least 32 nodes", and k
  shared-cmat simulations fit where one private-cmat simulation did —
  :func:`min_nodes_required`.

The per-rank footprints used here are the buffer table and shard
arithmetic the solver itself registers in the memory ledgers
(:func:`repro.cgyro.costs.state_buffers`,
:func:`~repro.xgyro.partition.ensemble_nc_counts`), and every layer
that asks "do k members fit on n nodes" — this module, the campaign
packer, the planner — asks :func:`shard_fit` /
:func:`feasible_shapes`, so the arithmetic and the enforced reality
cannot drift apart (tests compare them).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.errors import DecompositionError
from repro.cgyro.costs import state_buffers
from repro.cgyro.params import CgyroInput
from repro.collision.cmat import cmat_block_bytes, cmat_total_bytes
from repro.grid.decomp import Decomposition
from repro.grid.layouts import Layout, block_shape
from repro.machine.memory import MemoryLedger
from repro.machine.model import MachineModel
from repro.xgyro.partition import ensemble_nc_counts


def state_bytes_per_rank(inp: CgyroInput, decomp: Decomposition) -> int:
    """Non-cmat per-rank bytes: the sum of the state buffers the solver
    registers (equal to the ledger sum exactly)."""
    return sum(state_buffers(inp, decomp).values())


def cmat_bytes_per_rank(
    inp: CgyroInput, decomp: Decomposition, *, ensemble_size: int = 1
) -> int:
    """Worst-case per-rank cmat bytes; ``ensemble_size > 1`` means
    shared.  An uneven nc split gives the first coll ranks one extra
    configuration point; raises :class:`DecompositionError` only when
    some coll rank would own no shard (``k * P1 > nc``)."""
    counts = ensemble_nc_counts(decomp, ensemble_size)
    return cmat_block_bytes(decomp.dims, max(counts), decomp.nt_loc)


def cmat_dominance_ratio(inp: CgyroInput) -> float:
    """cmat bytes over all-other-state bytes (rank-count invariant).

    The paper notes the ratio "does not change with strong scaling":
    both cmat and state shrink by the same 1/P1 factor.
    """
    dims = inp.grid_dims()
    decomp = Decomposition(dims, 1, 1)
    return cmat_total_bytes(dims) / state_bytes_per_rank(inp, decomp)


def member_decomp(
    inp: CgyroInput, k: int, ranks_per_member: int
) -> Optional[Decomposition]:
    """Decomposition of one of ``k`` cmat-sharing members on
    ``ranks_per_member`` ranks, or ``None`` where the solver could not
    be built: no valid (P1, P2), a nonlinear input whose NL layout does
    not divide, or a coll rank left without a cmat shard."""
    dims = inp.grid_dims()
    try:
        decomp = Decomposition.choose(dims, ranks_per_member)
        if inp.nonlinear:
            block_shape(Layout.NL, decomp)  # raises unless P2 divides nc
    except DecompositionError:
        return None
    if k * decomp.n_proc_1 > dims.nc:
        return None
    return decomp


def shard_fit(
    machine: MachineModel, inp: CgyroInput, decomp: Decomposition, max_count: int
) -> Optional[Tuple[int, int]]:
    """The memory probe: per-rank ``(state, cmat)`` bytes when the state
    buffers plus a cmat shard of ``max_count`` configuration points fit
    one rank's budget, else ``None``.  Asked of a
    :class:`MemoryLedger`, as the run-time ledgers will be."""
    ledger = MemoryLedger(machine.mem_per_rank_bytes)
    state_b = state_bytes_per_rank(inp, decomp)
    if not ledger.would_fit("state", state_b):
        return None
    ledger.alloc("state", state_b)
    cmat_b = cmat_block_bytes(decomp.dims, max_count, decomp.nt_loc)
    return (state_b, cmat_b) if ledger.would_fit("cmat", cmat_b) else None


def feasible_shapes(
    machine: MachineModel, inp: CgyroInput, k: int, max_nodes: int
) -> Iterator[Tuple[int, Decomposition, Tuple[int, int]]]:
    """``(n_nodes, member decomposition, shard_fit)`` for every node
    count up to ``max_nodes``, ascending, on which ``k`` members sharing
    one balanced cmat fit — the job spanning all ranks of the nodes,
    each member on 1/k of them."""
    for n_nodes in range(1, max_nodes + 1):
        n_ranks = n_nodes * machine.ranks_per_node
        if n_ranks % k != 0:
            continue
        decomp = member_decomp(inp, k, n_ranks // k)
        if decomp is None:
            continue
        fit = shard_fit(machine, inp, decomp, max(ensemble_nc_counts(decomp, k)))
        if fit is not None:
            yield n_nodes, decomp, fit


def min_nodes_required(
    inp: CgyroInput,
    machine: MachineModel,
    *,
    ensemble_size: int = 1,
) -> int:
    """Smallest node count on which the job fits.

    For ``ensemble_size == 1``: one private-cmat simulation using every
    rank of the nodes.  For k > 1: k members sharing cmat, the job
    spanning all ranks of the nodes (each member gets 1/k of them).
    Returns the node count, or raises :class:`DecompositionError` if
    nothing up to the machine's node count fits.
    """
    for n_nodes, _, _ in feasible_shapes(machine, inp, ensemble_size, machine.n_nodes):
        return n_nodes
    raise DecompositionError(
        f"{inp.name}: no node count up to {machine.n_nodes} fits "
        f"{ensemble_size} member(s) on {machine.name}"
    )
