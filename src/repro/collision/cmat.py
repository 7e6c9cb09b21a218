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
also holds for the process running the simulator, and a block is a
function of ``(profile[ic], n)`` only.  Every propagator whose
:class:`~repro.collision.signature.CmatSignature` is equal resolves to
*one* store — the distinct blocks, ``(n_values, nt, nv, nv)``, filled
lazily, plus the ``row -> key`` index; no dense ``nc``-row tensor exists
on the host — kept alive by its users (propagators and the windows they
returned) and by nothing else.  :meth:`CmatPropagator.build` returns a
**read-only** :class:`CmatWindow` onto it.  Nobody but ``_fill`` writes
a block; a caller that needs to change one copies that row first
(``SharedCmatScheme.corrupt_shard`` is the only one).  None of this
touches the *simulated* machine: ledger allocations, ``nbytes`` and
``build_flops`` charges are the modeled dense ones and stay per rank.
"""

from __future__ import annotations

import weakref
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import InputError
from repro.collision.operator import CollisionOperator
from repro.collision.signature import CmatSignature
from repro.grid.dims import GridDims
from repro.grid.layouts import real_columns


def cmat_total_bytes(dims: GridDims) -> int:
    """Bytes of the full (undistributed) float64 cmat tensor."""
    return dims.nv * dims.nv * dims.nc * dims.nt * 8


def cmat_block_bytes(dims: GridDims, n_ic: int, n_modes: int) -> int:
    """Bytes of a float64 cmat block covering ``n_ic`` x ``n_modes`` pairs."""
    return dims.nv * dims.nv * n_ic * n_modes * 8


class _SharedCmat:
    """The distinct blocks of one signature: the host's only ``cmat``.

    ``blocks[row_key[ic], n]`` is the block of pair ``(ic, n)``,
    ``values`` the distinct entries of ``profile`` (the one the store was
    keyed from), ``filled[key, n]`` says which blocks hold their inverse.
    ``blocks`` is allocated untouched and read-only except while ``_fill``
    writes it, so no view of it can be made writeable either; at worst
    (all values distinct) it is the dense ``(nc, nt, nv, nv)`` size.
    """

    def __init__(self, dims: GridDims, profile: np.ndarray) -> None:
        self.profile = profile
        self.values, self.row_key = np.unique(profile, return_inverse=True)
        self.blocks = np.empty((len(self.values), dims.nt, dims.nv, dims.nv))
        self.blocks.flags.writeable = False
        self.filled = np.zeros(self.blocks.shape[:2], dtype=bool)


#: signature -> its store, for as long as somebody uses it
_TENSORS: "weakref.WeakValueDictionary[CmatSignature, _SharedCmat]" = weakref.WeakValueDictionary()


def live_stores() -> List[_SharedCmat]:
    """Every store somebody holds now; whoever keeps the list keeps
    them, inverted blocks and all, for the next propagator."""
    return list(_TENSORS.values())


def _runs(indices: np.ndarray) -> List[Tuple[slice, slice]]:
    """``indices`` cut left to right into maximal arithmetic runs: one
    ``(positions, values)`` slice pair each, a constant run's ``values``
    being the one-element slice that broadcasts over its positions."""
    idx, out, lo = indices.tolist(), [], 0
    while lo < len(idx):
        hi = lo + 1
        step = idx[hi] - idx[lo] if hi < len(idx) else 0
        while hi < len(idx) and idx[hi] - idx[hi - 1] == step:
            hi += 1
        stop = idx[hi - 1] + (-1 if step < 0 else 1)
        out.append((slice(lo, hi), slice(idx[lo], stop if stop >= 0 else None, step or 1)))
        lo = hi
    return out


class CmatWindow:
    """Read-only ``(n_ic, n_modes, nv, nv)`` window onto a store.

    Row ``i`` reads stored row ``keys[i]``, column ``j`` mode ``modes[j]``.
    ``tiles`` — computed once, here, not per apply — covers the window
    exactly once with ``(rows, cols, view)`` triples: ``keys`` and
    ``modes`` cut into arithmetic runs (``1 + eps cos(theta)`` is monotone
    per half-period: a contiguous shard is one or two), each a basic-slice
    view of ``blocks`` that broadcasts to ``window[rows, cols]``.  ``shape``,
    ``dtype``, ``nbytes`` are the modeled dense array's; ``w[a:b]`` is a row
    sub-window, ``w[i, j]`` a read-only block, ``np.asarray(w)`` a dense copy.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, store: _SharedCmat, keys: np.ndarray, modes: np.ndarray, tiles=None):
        self._store = store  # a live window keeps its store alive
        keys.flags.writeable = modes.flags.writeable = False
        self.keys, self.modes = keys, modes
        self.shape = n_ic, n_modes, nv, _ = (len(keys), len(modes)) + store.blocks.shape[2:]
        self.nbytes = n_ic * n_modes * nv * nv * self.dtype.itemsize
        if tiles is None:
            key_runs, mode_runs = _runs(keys), _runs(modes)
            tiles = [(rows, cols, store.blocks[k, m]) for rows, k in key_runs for cols, m in mode_runs]
        self.tiles = tiles

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(self.shape[0])
            if step != 1:
                raise IndexError("a cmat window is sliced by contiguous rows")
            if hi - lo == self.shape[0]:
                return self  # read-only, so the whole window is its own slice
            tiles = []
            for rows, cols, view in self.tiles:
                a, b = max(rows.start, lo), min(rows.stop, hi)
                if a < b:
                    if len(view) > 1:
                        view = view[a - rows.start : b - rows.start]
                    tiles.append((slice(a - lo, b - lo), cols, view))
            return CmatWindow(self._store, self.keys[lo:hi], self.modes, tiles)
        i, j = index
        for rows, cols, view in self.tiles:
            if rows.start <= i < rows.stop and cols.start <= j < cols.stop:
                return view[
                    min(i - rows.start, view.shape[0] - 1),
                    min(j - cols.start, view.shape[1] - 1),
                ]
        raise IndexError(f"block ({i}, {j}) outside a {self.shape[:2]} cmat window")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty(self.shape, dtype=dtype or self.dtype)
        for rows, cols, view in self.tiles:
            out[rows, cols] = view
        return out

    def joined(self, other: "CmatWindow", order: np.ndarray) -> "CmatWindow":
        """This window's rows then ``other``'s (same store and modes), in ``order``."""
        keys = np.concatenate([self.keys, other.keys])[order]
        return CmatWindow(self._store, keys, self.modes)

    def with_row(self, i: int, row: np.ndarray) -> "CmatWindow":
        """This window with row ``i`` reading ``row``, a private
        ``(1, n_modes, nv, nv)`` array, instead of the store."""
        row.flags.writeable = False
        tiles = self[:i].tiles + [(slice(i, i + 1), slice(0, self.shape[1]), row)]
        for rows, cols, view in self[i + 1 :].tiles:
            tiles.append((slice(rows.start + i + 1, rows.stop + i + 1), cols, view))
        return CmatWindow(self._store, self.keys, self.modes, tiles)


class CmatPropagator:
    """Builds and applies ``(I - dt C)^{-1}`` blocks.

    Parameters
    ----------
    operator:
        The assembled collision operator.  Its grids must be the ones
        its ``dims`` define (``VelocityGrid.build(dims)``,
        ``ConfigGrid.build(dims)``): the signature that keys the shared
        store does not see them, so an operator whose collisionality
        profile is not the one a live store was keyed from is refused.
    dt:
        Time-step entering the implicit solve; cmat *values* depend on
        it, which is why ``dt`` is part of the cmat signature.
    """

    def __init__(self, operator: CollisionOperator, dt: float) -> None:
        if dt <= 0:
            raise InputError(f"dt must be > 0, got {dt}")
        self.operator = operator
        self.dt = float(dt)
        signature = CmatSignature.from_parts(self.dims, operator.params, self.dt)
        profile = operator.nu_profile()
        # the signature's store: the live one if somebody holds it
        self._store = _TENSORS.get(signature)
        if self._store is None:
            self._store = _TENSORS[signature] = _SharedCmat(self.dims, profile)
        elif not np.array_equal(self._store.profile, profile):
            raise InputError(
                "this operator's collisionality profile is not the one the shared "
                f"cmat of {signature} was keyed from: its grids are not its dims'"
            )

    @property
    def dims(self) -> GridDims:
        """Grid dimensions of the underlying operator."""
        return self.operator.dims

    def build(self, ic_indices: Sequence[int], n_indices: Sequence[int]) -> CmatWindow:
        """Propagator blocks for the given (ic, n) index sets.

        Returns a read-only :class:`CmatWindow` ``A`` of shape
        ``(len(ic_indices), len(n_indices), nv, nv)`` with ``A[i, j] =
        (I - dt * C(ic_i, n_j))^{-1}`` onto the signature's shared store.

        The collisionality profile enters only as a scalar per ic, so a
        block is a function of ``(profile[ic], n)``: each distinct pair
        is inverted once per store, all of a request's in one stacked
        call (still one LAPACK call per matrix, so the bits are those
        of inverting each block alone), and read by every row sharing
        the value.
        """
        dims = self.dims
        ics = np.fromiter(ic_indices, dtype=np.intp)
        ns = np.fromiter(n_indices, dtype=np.intp)
        # every index is checked before the shared store is touched
        bad = ics[(ics < 0) | (ics >= dims.nc)]
        if bad.size:
            raise InputError(f"ic {bad[0]} out of range [0, {dims.nc})")
        bad = ns[(ns < 0) | (ns >= dims.nt)]
        if bad.size:
            raise InputError(f"toroidal mode {bad[0]} out of range [0, {dims.nt})")
        store = self._store
        keys = store.row_key[ics]
        if not store.filled[keys][:, ns].all():
            self._fill(keys, ns)
        return CmatWindow(store, keys, ns)

    def _fill(self, keys: np.ndarray, ns: np.ndarray) -> None:
        """Invert the requested blocks the store does not hold yet."""
        store = self._store
        missing = np.zeros_like(store.filled)
        missing[np.ix_(keys, ns)] = True
        missing &= ~store.filled
        # one operand per missing (n, key), by mode then by profile value
        pending_n, pending_key = np.nonzero(missing.T)
        eye = np.eye(self.dims.nv)
        stack = np.empty((len(pending_n),) + eye.shape)
        n_list = pending_n.tolist()
        c = {n_mode: self.operator.mode_matrix(n_mode) for n_mode in set(n_list)}
        for operand, n_mode, key in zip(stack, n_list, pending_key.tolist()):
            # eye - dt * value * C_n, each product written in place
            np.multiply(self.dt * store.values[key], c[n_mode], out=operand)
            np.subtract(eye, operand, out=operand)
        store.blocks.flags.writeable = True
        try:
            store.blocks[pending_key, pending_n] = np.linalg.inv(stack)
        finally:
            store.blocks.flags.writeable = False
        store.filled[pending_key, pending_n] = True

    def build_flops(self, n_ic: int, n_modes: int) -> float:
        """Estimated flops to build a block (one LU-grade inverse/pair)."""
        return float(n_ic) * float(n_modes) * (2.0 / 3.0 + 2.0) * self.dims.nv**3


def apply_propagator(cmat_block: "CmatWindow | np.ndarray", h_block: np.ndarray) -> np.ndarray:
    """Collisional step: apply cmat blocks to a COLL-layout field block.

    Parameters
    ----------
    cmat_block:
        Shape ``(n_ic, n_modes, nv, nv)``, float64: a window or an array.
    h_block:
        Shape ``(n_ic, nv, n_modes)``, complex128 (COLL layout:
        configuration x velocity x toroidal), or ``(n_ic, k, nv,
        n_modes)``: k members' blocks on the same pairs.

    Returns
    -------
    Updated block of the same shape as ``h_block``.

    The real tensor acts on the (re, im) columns of the state: one real
    ``nv x nv`` by ``nv x 2`` GEMM per (ic, n) pair and member, batched
    by ``np.matmul`` over each tile of the window.  Each is its own GEMM
    on the same operand bytes wherever its block is stored, so its
    result does not depend on which pairs or members share the call or
    the tile — the ensemble's shards and a baseline's slices give the
    same bits.
    """
    n_ic, n_modes, nv, nv2 = cmat_block.shape
    if nv != nv2:
        raise InputError(f"cmat blocks must be square, got {cmat_block.shape}")
    members = h_block.shape[1:-2]
    if len(members) > 1 or h_block.shape != (n_ic, *members, nv, n_modes):
        raise InputError(
            f"h block shape {h_block.shape} incompatible with cmat "
            f"{cmat_block.shape}; expected ({n_ic}, [k,] {nv}, {n_modes})"
        )
    if cmat_block.dtype != np.float64:
        raise InputError(f"cmat blocks must be float64, got {cmat_block.dtype}")
    out = np.empty(h_block.shape, dtype=np.complex128)
    # (n_ic, n_modes, [k,] nv, 2): the mode axis ahead of the members
    rhs, dst = (np.moveaxis(real_columns(a), -2, 1) for a in (h_block, out))
    # a plain array is its own single tile; a tile broadcasts over members
    whole = [(slice(None), slice(None), cmat_block)]
    lead = (slice(None), slice(None)) + (None,) * len(members)
    for rows, cols, view in getattr(cmat_block, "tiles", whole):
        np.matmul(view[lead], rhs[rows, cols], out=dst[rows, cols])
    return out


def apply_flops(n_ic: int, n_modes: int, nv: int) -> float:
    """Flops of one collisional application (complex matvec per pair)."""
    return 8.0 * float(n_ic) * float(n_modes) * float(nv) ** 2
