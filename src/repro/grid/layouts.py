"""Distributed data layouts for the three solver phases.

A field is a global complex tensor of shape ``(nc, nv, nt)``.  Each
phase needs a different dimension complete on every rank:

========  ==================  ==============================
layout    complete dimension  per-rank block shape
========  ==================  ==============================
STR       nc                  ``(nc, nv_loc, nt_loc)``
COLL      nv                  ``(nc_loc, nv, nt_loc)``
NL        nt                  ``(nc_nl_loc, nv_loc, nt)``
========  ==================  ==============================

where ``nc_nl_loc = nc / P2`` (the NL layout additionally requires P2
to divide nc).  ``scatter_global`` / ``gather_global`` convert between
a global array and the per-local-rank block list, and are the reference
semantics the AllToAll transposes are tested against.
"""

from __future__ import annotations

import enum
import math
from typing import List, Tuple

import numpy as np

from repro.errors import DecompositionError, InputError
from repro.grid.decomp import Decomposition


class Layout(enum.Enum):
    """Phase-specific distribution of a ``(nc, nv, nt)`` tensor."""

    STR = "str"
    COLL = "coll"
    NL = "nl"


def real_columns(block: np.ndarray) -> np.ndarray:
    """A complex128 ``(..., n)`` block as float64 ``(..., n, 2)`` (re, im) columns.

    A real weight applied to a complex field is two real products; in
    this form it is one real GEMM with two right-hand columns.  A view
    whenever the last axis is contiguous (every block and slice the
    solver produces), so writing to it writes to ``block``.
    """
    if block.dtype != np.complex128:
        raise InputError(f"field blocks must be complex128, got {block.dtype}")
    if block.strides[-1] != block.itemsize:
        block = np.ascontiguousarray(block)
    return block.view(np.float64).reshape(*block.shape, 2)


def _nc_nl_loc(decomp: Decomposition) -> int:
    if decomp.dims.nc % decomp.n_proc_2 != 0:
        raise DecompositionError(
            f"NL layout needs n_proc_2={decomp.n_proc_2} to divide nc={decomp.dims.nc}"
        )
    return decomp.dims.nc // decomp.n_proc_2


def nc_nl_slice(decomp: Decomposition, i2: int) -> slice:
    """Global nc range owned by toroidal group ``i2`` in the NL layout."""
    loc = _nc_nl_loc(decomp)
    return slice(i2 * loc, (i2 + 1) * loc)


def block_shape(layout: Layout, decomp: Decomposition) -> Tuple[int, int, int]:
    """Per-rank block shape under ``layout``."""
    d = decomp.dims
    if layout is Layout.STR:
        return (d.nc, decomp.nv_loc, decomp.nt_loc)
    if layout is Layout.COLL:
        return (decomp.nc_loc, d.nv, decomp.nt_loc)
    if layout is Layout.NL:
        return (_nc_nl_loc(decomp), decomp.nv_loc, d.nt)
    raise AssertionError(f"unhandled layout {layout}")


def block_nbytes(layout: Layout, decomp: Decomposition) -> int:
    """Bytes of one per-rank complex128 block under ``layout``."""
    return math.prod(block_shape(layout, decomp)) * 16


def scatter_global(
    global_field: np.ndarray, layout: Layout, decomp: Decomposition
) -> List[np.ndarray]:
    """Slice a global ``(nc, nv, nt)`` tensor into per-local-rank blocks.

    Returns a list indexed by local rank (``i2 * P1 + i1``).  Blocks
    are contiguous copies.
    """
    d = decomp.dims
    if global_field.shape != (d.nc, d.nv, d.nt):
        raise DecompositionError(
            f"global field shape {global_field.shape} != ({d.nc}, {d.nv}, {d.nt})"
        )
    blocks: List[np.ndarray] = []
    for local_rank in range(decomp.n_proc):
        i1, i2 = decomp.coords_of(local_rank)
        if layout is Layout.STR:
            blk = global_field[:, decomp.nv_slice(i1), decomp.nt_slice(i2)]
        elif layout is Layout.COLL:
            blk = global_field[decomp.nc_slice(i1), :, decomp.nt_slice(i2)]
        elif layout is Layout.NL:
            blk = global_field[nc_nl_slice(decomp, i2), decomp.nv_slice(i1), :]
        else:  # pragma: no cover - exhaustive enum
            raise AssertionError(f"unhandled layout {layout}")
        blocks.append(np.ascontiguousarray(blk))
    return blocks


def gather_global(
    blocks: "List[np.ndarray]", layout: Layout, decomp: Decomposition
) -> np.ndarray:
    """Reassemble per-local-rank blocks into the global tensor.

    Inverse of :func:`scatter_global`; used to verify transposes and to
    extract diagnostics in tests.
    """
    d = decomp.dims
    if len(blocks) != decomp.n_proc:
        raise DecompositionError(
            f"expected {decomp.n_proc} blocks, got {len(blocks)}"
        )
    expected = block_shape(layout, decomp)
    out = np.zeros((d.nc, d.nv, d.nt), dtype=np.result_type(*blocks))
    for local_rank, blk in enumerate(blocks):
        if blk.shape != expected:
            raise DecompositionError(
                f"block {local_rank} has shape {blk.shape}, expected {expected}"
            )
        i1, i2 = decomp.coords_of(local_rank)
        if layout is Layout.STR:
            out[:, decomp.nv_slice(i1), decomp.nt_slice(i2)] = blk
        elif layout is Layout.COLL:
            out[decomp.nc_slice(i1), :, decomp.nt_slice(i2)] = blk
        elif layout is Layout.NL:
            out[nc_nl_slice(decomp, i2), decomp.nv_slice(i1), :] = blk
        else:  # pragma: no cover - exhaustive enum
            raise AssertionError(f"unhandled layout {layout}")
    return out
