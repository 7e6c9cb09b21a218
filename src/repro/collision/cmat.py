"""The collisional constant tensor ``cmat`` (implicit propagator).

CGYRO advances the stiff collision term implicitly:

    h^{n+1} = (I - dt * C(ic, n))^{-1} h^n .

Because ``C`` is constant, the inverse is precomputed once and stored —
for every owned ``(ic, n)`` pair — as the dense ``nv x nv`` *cmat*
blocks.  This turns each collisional step into a matrix-vector product
(order-of-magnitude cheaper than an iterative solve) at the price of
``nv^2 * nc * nt`` doubles of memory: the dominant buffer of the whole
code, ~10x everything else combined for nl03c, and the object XGYRO
shares across an ensemble.

:class:`CmatPropagator` hands out blocks for an arbitrary subset of
``(ic, n)`` pairs, so the same code path serves a serial run, a CGYRO
rank (``nc_loc`` slice) and an XGYRO rank (``nc / (k * P1')`` slice of
the ensemble-wide distribution).

Host-side sharing
-----------------
The paper's rule — one ``cmat`` per signature, not one per simulation —
also holds for the process running the simulator.  Every propagator
whose :class:`~repro.collision.signature.CmatSignature` is equal
resolves to *one* ``(nc, nt, nv, nv)`` array, filled lazily and kept
alive by its users (propagators and the arrays they returned) and by
nothing else.  What :meth:`CmatPropagator.build` returns is a
**read-only** window onto that array: a view when both index sets are
contiguous runs, a fancy-index copy otherwise.  Nobody but ``build``
writes to the tensor; a caller that needs to change a block copies it
first (``SharedCmatScheme.corrupt_shard`` is the only one).  None of
this touches the *simulated* machine: ledger allocations and
``build_flops`` charges are the callers' and stay per rank.
"""

from __future__ import annotations

import weakref
from typing import Optional, Sequence

import numpy as np

from repro.errors import InputError
from repro.collision.operator import CollisionOperator
from repro.collision.signature import CmatSignature
from repro.grid.dims import GridDims
from repro.grid.layouts import real_columns


def cmat_total_bytes(dims: GridDims, dtype=np.float64) -> int:
    """Bytes of the full (undistributed) cmat tensor."""
    return dims.nv * dims.nv * dims.nc * dims.nt * np.dtype(dtype).itemsize


def cmat_block_bytes(dims: GridDims, n_ic: int, n_modes: int, dtype=np.float64) -> int:
    """Bytes of a cmat block covering ``n_ic`` x ``n_modes`` pairs."""
    return dims.nv * dims.nv * n_ic * n_modes * np.dtype(dtype).itemsize


class _SharedCmat(np.ndarray):
    """The one host-resident tensor of a signature.

    Shape ``(nc, nt, nv, nv)``, allocated untouched; ``filled[ic, n]``
    says which blocks hold their inverse.  It is an ndarray subclass so
    that the mask travels with the memory: every view ``build`` hands
    out reaches this object through ``.base`` and keeps both alive.
    Read-only except while ``build`` fills it, so no view of it can be
    made writeable either.
    """

    filled: np.ndarray

    def __new__(cls, dims: GridDims) -> "_SharedCmat":
        self = super().__new__(cls, (dims.nc, dims.nt, dims.nv, dims.nv))
        self.filled = np.zeros((dims.nc, dims.nt), dtype=bool)
        self.flags.writeable = False
        return self


#: signature -> its tensor, for as long as somebody uses it
_TENSORS: "weakref.WeakValueDictionary[CmatSignature, _SharedCmat]" = (
    weakref.WeakValueDictionary()
)


def _as_run(indices: np.ndarray) -> Optional[slice]:
    """``indices`` as a slice when they are one ascending run, else None."""
    if indices.size and (np.diff(indices) == 1).all():
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return None


class CmatPropagator:
    """Builds and applies ``(I - dt C)^{-1}`` blocks.

    Parameters
    ----------
    operator:
        The assembled collision operator.  Its grids must be the ones
        its ``dims`` define (``VelocityGrid.build(dims)``,
        ``ConfigGrid.build(dims)``), as at every construction site:
        the signature that keys the shared tensor does not see them.
    dt:
        Time-step entering the implicit solve; cmat *values* depend on
        it, which is why ``dt`` is part of the cmat signature.
    """

    def __init__(self, operator: CollisionOperator, dt: float) -> None:
        if dt <= 0:
            raise InputError(f"dt must be > 0, got {dt}")
        self.operator = operator
        self.dt = float(dt)
        self._tensor: Optional[_SharedCmat] = None

    @property
    def dims(self) -> GridDims:
        """Grid dimensions of the underlying operator."""
        return self.operator.dims

    def build(
        self, ic_indices: Sequence[int], n_indices: Sequence[int]
    ) -> np.ndarray:
        """Propagator blocks for the given (ic, n) index sets.

        Returns read-only ``A`` of shape ``(len(ic_indices),
        len(n_indices), nv, nv)`` with ``A[i, j] = (I - dt * C(ic_i,
        n_j))^{-1}`` — a view of the signature's shared tensor when
        both index sets are contiguous ascending runs, a copy otherwise.

        The collisionality profile enters only as a scalar per ic, so a
        block is a function of ``(profile[ic], n)``: each distinct pair
        is inverted once per tensor, all of a request's in one stacked
        call (still one LAPACK call per matrix, so the bits are those
        of inverting each block alone), and copied to every row sharing
        the value.
        """
        dims = self.dims
        ics = np.fromiter(ic_indices, dtype=np.intp)
        ns = np.fromiter(n_indices, dtype=np.intp)
        # every index is checked before the shared tensor is touched
        bad = ics[(ics < 0) | (ics >= dims.nc)]
        if bad.size:
            raise InputError(f"ic {bad[0]} out of range [0, {dims.nc})")
        bad = ns[(ns < 0) | (ns >= dims.nt)]
        if bad.size:
            raise InputError(f"toroidal mode {bad[0]} out of range [0, {dims.nt})")
        if self._tensor is None:
            signature = CmatSignature.from_parts(dims, self.operator.params, self.dt)
            self._tensor = _TENSORS.get(signature)
            if self._tensor is None:
                self._tensor = _TENSORS[signature] = _SharedCmat(dims)
        tensor = self._tensor
        rows, cols = _as_run(ics), _as_run(ns)
        if rows is not None and cols is not None:
            window = (rows, cols)
        else:
            window = np.ix_(ics, ns)
        if not tensor.filled[window].all():
            self._fill(ics, ns)
        out = tensor[window].view(np.ndarray)
        out.flags.writeable = False
        return out

    def _fill(self, ics: np.ndarray, ns: np.ndarray) -> None:
        """Compute the requested blocks the shared tensor does not hold yet."""
        tensor, filled = self._tensor, self._tensor.filled
        profile = self.operator.nu_profile()
        tensor.flags.writeable = True
        try:
            # (profile value, C_n, n, rows awaiting the inverse) per key no row holds
            pending = []
            for n_mode in np.unique(ns):
                missing = np.unique(ics[~filled[ics, n_mode]])
                c_n = None
                for value in np.unique(profile[missing]):
                    same = profile == value
                    targets = missing[same[missing]]
                    donors = np.flatnonzero(same & filled[:, n_mode])
                    if donors.size:
                        tensor[targets, n_mode] = tensor[donors[0], n_mode]
                        filled[targets, n_mode] = True
                        continue
                    if c_n is None:
                        c_n = self.operator.mode_matrix(n_mode)
                    pending.append((value, c_n, n_mode, targets))
            if not pending:
                return
            eye = np.eye(self.dims.nv)
            stack = np.empty((len(pending),) + eye.shape)
            for operand, (value, c_n, _, _) in zip(stack, pending):
                operand[...] = eye - self.dt * value * c_n
            for inverse, (_, _, n_mode, targets) in zip(np.linalg.inv(stack), pending):
                tensor[targets, n_mode] = inverse
                filled[targets, n_mode] = True
        finally:
            tensor.flags.writeable = False

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
