"""The collisional constant tensor ``cmat`` (implicit propagator).

CGYRO advances the stiff collision term implicitly:

    h^{n+1} = (I - dt * C(ic, n))^{-1} h^n .

Because ``C`` is constant, the inverse is precomputed once per
simulation and stored — for every owned ``(ic, n)`` pair — as the dense
``nv x nv`` *cmat* blocks.  This turns each collisional step into a
matrix-vector product (order-of-magnitude cheaper than an iterative
solve) at the price of ``nv^2 * nc * nt`` doubles of memory: the
dominant buffer of the whole code, ~10x everything else combined for
nl03c, and the object XGYRO shares across an ensemble.

:class:`CmatPropagator` builds blocks for an arbitrary subset of
``(ic, n)`` pairs, so the same code path serves a serial run, a CGYRO
rank (``nc_loc`` slice) and an XGYRO rank (``nc / (k * P1')`` slice of
the ensemble-wide distribution).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InputError
from repro.collision.operator import CollisionOperator
from repro.grid.dims import GridDims
from repro.grid.layouts import real_columns


def cmat_total_bytes(dims: GridDims, dtype=np.float64) -> int:
    """Bytes of the full (undistributed) cmat tensor."""
    return dims.nv * dims.nv * dims.nc * dims.nt * np.dtype(dtype).itemsize


def cmat_block_bytes(dims: GridDims, n_ic: int, n_modes: int, dtype=np.float64) -> int:
    """Bytes of a cmat block covering ``n_ic`` x ``n_modes`` pairs."""
    return dims.nv * dims.nv * n_ic * n_modes * np.dtype(dtype).itemsize


class CmatPropagator:
    """Builds and applies ``(I - dt C)^{-1}`` blocks.

    Parameters
    ----------
    operator:
        The assembled collision operator.
    dt:
        Time-step entering the implicit solve; cmat *values* depend on
        it, which is why ``dt`` is part of the cmat signature.
    """

    def __init__(self, operator: CollisionOperator, dt: float) -> None:
        if dt <= 0:
            raise InputError(f"dt must be > 0, got {dt}")
        self.operator = operator
        self.dt = float(dt)

    @property
    def dims(self) -> GridDims:
        """Grid dimensions of the underlying operator."""
        return self.operator.dims

    def build(
        self, ic_indices: Sequence[int], n_indices: Sequence[int]
    ) -> np.ndarray:
        """Propagator blocks for the given (ic, n) index sets.

        Returns ``A`` of shape ``(len(ic_indices), len(n_indices), nv,
        nv)`` with ``A[i, j] = (I - dt * C(ic_i, n_j))^{-1}``.

        The collisionality profile enters only as a scalar per ic, so
        one matrix inversion per (profile value, mode) would suffice;
        we invert per pair for clarity — construction happens once per
        simulation and its cost is itself a benchmark
        (``bench_cmat_tradeoff``).
        """
        dims = self.dims
        ic_indices = list(ic_indices)
        n_indices = list(n_indices)
        nv = dims.nv
        eye = np.eye(nv)
        profile = self.operator.nu_profile()
        out = np.empty((len(ic_indices), len(n_indices), nv, nv))
        for j, n_mode in enumerate(n_indices):
            c_n = self.operator.mode_matrix(n_mode)
            for i, ic in enumerate(ic_indices):
                if not 0 <= ic < dims.nc:
                    raise InputError(f"ic {ic} out of range [0, {dims.nc})")
                out[i, j] = np.linalg.inv(eye - self.dt * profile[ic] * c_n)
        return out

    def build_flops(self, n_ic: int, n_modes: int) -> float:
        """Estimated flops to build a block (one LU-grade inverse/pair)."""
        return float(n_ic) * float(n_modes) * (2.0 / 3.0 + 2.0) * self.dims.nv**3


def apply_propagator(cmat_block: np.ndarray, h_block: np.ndarray) -> np.ndarray:
    """Collisional step: apply cmat blocks to a COLL-layout field block.

    Parameters
    ----------
    cmat_block:
        Shape ``(n_ic, n_modes, nv, nv)``, float64.
    h_block:
        Shape ``(n_ic, nv, n_modes)``, complex128 (COLL layout:
        configuration x velocity x toroidal).

    Returns
    -------
    Updated block of the same shape as ``h_block``.

    The real tensor acts on the (re, im) columns of the state: one real
    ``nv x nv`` by ``nv x 2`` GEMM per (ic, n) pair, batched by
    ``np.matmul``.  Each pair is its own GEMM, so a pair's result does
    not depend on which other pairs share the call — the ensemble's
    ``nc/(k P1)``-row shards and a baseline's ``nc/P1``-row slices give
    the same bits.
    """
    n_ic, n_modes, nv, nv2 = cmat_block.shape
    if nv != nv2:
        raise InputError(f"cmat blocks must be square, got {cmat_block.shape}")
    if h_block.shape != (n_ic, nv, n_modes):
        raise InputError(
            f"h block shape {h_block.shape} incompatible with cmat "
            f"{cmat_block.shape}; expected ({n_ic}, {nv}, {n_modes})"
        )
    if cmat_block.dtype != np.float64:
        raise InputError(f"cmat blocks must be float64, got {cmat_block.dtype}")
    out = np.empty(h_block.shape, dtype=np.complex128)
    np.matmul(
        cmat_block,
        real_columns(h_block).transpose(0, 2, 1, 3),
        out=real_columns(out).transpose(0, 2, 1, 3),
    )
    return out


def apply_flops(n_ic: int, n_modes: int, nv: int) -> float:
    """Flops of one collisional application (complex matvec per pair)."""
    return 8.0 * float(n_ic) * float(n_modes) * float(nv) ** 2
