"""AllToAll transposes between phase layouts.

Each function moves one toroidal group's (or cross-group's) blocks
between two layouts via a single vector AllToAll on the appropriate
communicator, exactly mirroring CGYRO's phase transitions:

- :func:`transpose_str_to_coll` / :func:`transpose_coll_to_str` run on
  a **comm_1** group (P1 ranks of one toroidal group, in i1 order) —
  the communicator the str AllReduce also uses in stock CGYRO
  (Figure 1);
- :func:`transpose_str_to_nl` / :func:`transpose_nl_to_str` run on a
  **comm_2** group (P2 ranks sharing an i1 column, in i2 order).

Blocks are keyed by *world rank* (the communicator's members);
communicator rank ``j`` must correspond to grid coordinate ``i1 = j``
(comm_1) or ``i2 = j`` (comm_2), which is how the solver constructs
them.  The NL side of a comm_2 group is one ``(nc, nv_loc, nt)`` i1
column whose row ranges are its ranks' NL blocks: received blocks are
written straight into it, and back into the STR blocks.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import DecompositionError
from repro.grid.decomp import Decomposition
from repro.grid.layouts import Layout, block_shape, nc_nl_slice
from repro.vmpi.communicator import Communicator


def _check_blocks(
    comm: Communicator,
    blocks: Mapping[int, np.ndarray],
    shape: Tuple[int, ...],
    expected_size: int,
    what: str,
) -> None:
    if comm.size != expected_size:
        raise DecompositionError(
            f"{what}: communicator size {comm.size} != expected {expected_size}"
        )
    for r in comm.ranks:
        if r not in blocks:
            raise DecompositionError(f"{what}: missing block for world rank {r}")
        if blocks[r].shape != shape:
            raise DecompositionError(
                f"{what}: rank {r} block shape {blocks[r].shape} != {shape}"
            )


def transpose_str_to_coll(
    comm1: Communicator,
    blocks: Mapping[int, np.ndarray],
    decomp: Decomposition,
) -> Dict[int, np.ndarray]:
    """STR -> COLL within one toroidal group.

    Input blocks ``(nc, nv_loc, nt_loc)``; output ``(nc_loc, nv,
    nt_loc)`` with nv assembled in comm-rank (= i1) order.
    """
    _check_blocks(comm1, blocks, block_shape(Layout.STR, decomp), decomp.n_proc_1, "str->coll")
    send = {
        r: [blocks[r][decomp.nc_slice(j), :, :] for j in range(comm1.size)]
        for r in comm1.ranks
    }
    recv = comm1.alltoall(send)
    return {r: np.concatenate(recv[r], axis=1) for r in comm1.ranks}


def transpose_coll_to_str(
    comm1: Communicator,
    blocks: Mapping[int, np.ndarray],
    decomp: Decomposition,
) -> Dict[int, np.ndarray]:
    """COLL -> STR within one toroidal group (inverse transpose)."""
    _check_blocks(comm1, blocks, block_shape(Layout.COLL, decomp), decomp.n_proc_1, "coll->str")
    send = {
        r: [blocks[r][:, decomp.nv_slice(j), :] for j in range(comm1.size)]
        for r in comm1.ranks
    }
    recv = comm1.alltoall(send)
    return {r: np.concatenate(recv[r], axis=0) for r in comm1.ranks}


def transpose_str_to_nl(
    comm2: Communicator, blocks: Mapping[int, np.ndarray], decomp: Decomposition
) -> np.ndarray:
    """STR -> NL across toroidal groups, into the group's i1 column.

    Input blocks ``(nc, nv_loc, nt_loc)``, or a field's ``(nc, nt_loc)``;
    every received block is written straight into the returned column
    ``(nc, [nv_loc,] nt)``, whose rows ``nc_nl_slice(decomp, j)`` are comm
    rank ``j``'s NL block, nt assembled in comm-rank (= i2) order.
    """
    shape = block_shape(Layout.STR, decomp)
    first = blocks.get(comm2.ranks[0])
    if first is not None and first.ndim == 2:
        shape = (shape[0], shape[2])
    _check_blocks(comm2, blocks, shape, decomp.n_proc_2, "str->nl")
    rows = [nc_nl_slice(decomp, j) for j in range(comm2.size)]
    recv = comm2.alltoall({r: [blocks[r][sel] for sel in rows] for r in comm2.ranks})
    column = np.empty(shape[:-1] + (decomp.dims.nt,), dtype=first.dtype)
    for sel, r in zip(rows, comm2.ranks):
        for i, block in enumerate(recv[r]):
            column[sel, ..., decomp.nt_slice(i)] = block
    return column


def transpose_nl_to_str(
    comm2: Communicator, column: np.ndarray, decomp: Decomposition, out: Mapping[int, np.ndarray]
) -> None:
    """NL -> STR across toroidal groups (inverse transpose): the
    group's ``(nc, nv_loc, nt)`` column as :func:`transpose_str_to_nl`
    returns it, each received block written straight into ``out[r]``,
    world rank ``r``'s STR block."""
    shape = block_shape(Layout.STR, decomp)
    _check_blocks(comm2, out, shape, decomp.n_proc_2, "nl->str")
    if column.shape != shape[:-1] + (decomp.dims.nt,):
        raise DecompositionError(f"nl->str: column shape {column.shape} is not {shape[:-1]} + (nt,)")
    rows = [nc_nl_slice(decomp, j) for j in range(comm2.size)]
    cols = [decomp.nt_slice(i) for i in range(comm2.size)]
    recv = comm2.alltoall(
        {r: [column[sel, :, c] for c in cols] for sel, r in zip(rows, comm2.ranks)}
    )
    for r in comm2.ranks:
        for sel, block in zip(rows, recv[r]):
            out[r][sel] = block
