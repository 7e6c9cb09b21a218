"""Field solve: gyro-averaged velocity moments and the dielectrics.

The electrostatic potential per configuration point and toroidal mode,

    phi(ic, n) = sum_iv  A(iv, n) h(ic, iv, n)  /  D(n),

with gyro-average weight ``A = w * z * dens * J`` and FLR factor
``J(iv, n) = exp(-(n k_theta_rho)^2 e / 2)``; the dielectric ``D(n)``
is the Debye-regularised quasineutrality response.  A second moment —
the *upwind field* ``psi_u = sum_iv w |vpar| J h`` — feeds the upwind
dissipation correction.  With ``beta_e > 0`` (electromagnetic runs,
per the Sugama theory CGYRO implements) a third moment — the parallel
current ``sum_iv w z dens vth vpar J h`` — yields A_parallel through
Ampere's law, ``D_A(n) = 2 (n k_theta_rho)^2 / beta_e + lambda_D``.

The velocity sums are what force the str-phase AllReduce over the nv
communicator: in the STR layout each rank holds only ``nv_loc`` of the
``nv`` points.  :meth:`FieldSolver.partial_moments` computes one
rank's (or one chunk's) contribution; summing the partials — serially
or via AllReduce — and calling :meth:`FieldSolver.assemble` yields a
:class:`FieldState`.  Serial reference and distributed solver share
this code path, which is what makes their equivalence testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.errors import InputError
from repro.cgyro import costs
from repro.cgyro.params import CgyroInput
from repro.grid.dims import GridDims
from repro.grid.layouts import real_columns
from repro.grid.velocity import VelocityGrid


@dataclass
class FieldState:
    """Solved fields on a (nc, nt-subset) slab.

    ``apar`` is ``None`` for electrostatic runs (``beta_e == 0``).
    """

    phi: np.ndarray
    psi_u: np.ndarray
    apar: Optional[np.ndarray] = None


def flr_table(vgrid: VelocityGrid, k_theta_rho: float, nt: int) -> np.ndarray:
    """FLR reduction factor ``J(iv, n)``, shape ``(nv, nt)``."""
    e = vgrid.flat_energy()
    n = np.arange(nt)
    b = (k_theta_rho * n) ** 2
    return np.exp(-0.5 * np.outer(e, b))


def moment_table(j_table: np.ndarray, velocity_weights: np.ndarray) -> np.ndarray:
    """Per-iv weights ``(n_mom, nv)`` times the FLR factor ``(nv, nt)``,
    laid out ``(n_mom, nt, nv)`` — the operand :func:`velocity_moments`
    takes, built once per solver."""
    return np.ascontiguousarray(
        velocity_weights[:, None, :] * j_table.T[None, :, :]
    )


class PreparedSets:
    """What a kernel derives from each distinct ``(iv, nt)`` set, built
    once by ``build(iv, nt)`` after every index is checked distinct and in
    range (else :class:`~repro.errors.InputError`); ``build`` is passed per
    call, not held, so no reference cycle outlives a dropped kernel."""

    def __init__(self, nv: int, nt: int) -> None:
        self._sizes = (nv, nt)
        self._sets: Dict[tuple, object] = {}

    @staticmethod
    def _checked(indices: np.ndarray, size: int, axis: str) -> np.ndarray:
        if indices.ndim != 1 or (indices.size and indices.dtype.kind not in "iu"):
            raise InputError(f"{axis} indices must be a 1-D sequence of integers")
        if indices.size and not (0 <= indices.min() and indices.max() < size):
            raise InputError(f"{axis} indices must lie in [0, {size}), got {indices}")
        if len(set(indices.tolist())) != indices.size:
            raise InputError(f"{axis} indices must not repeat, got {indices}")
        return indices.astype(np.intp)

    def get(self, iv_idx: Sequence[int], nt_idx: Sequence[int], build: Callable) -> object:
        """The prepared entry of a set, built by ``build`` the first time."""
        iv, nt = np.asarray(iv_idx), np.asarray(nt_idx)
        key = (iv.dtype, iv.tobytes(), nt.dtype, nt.tobytes())
        if key not in self._sets:
            sizes = zip((iv, nt), self._sizes, ("iv", "nt"))
            self._sets[key] = build(*(self._checked(*args) for args in sizes))
        return self._sets[key]


def velocity_moments(
    h: np.ndarray, weights: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``out[m, c, t] = sum_v weights[m, t, v] * h[c, v, t]``.

    ``h`` is a complex128 ``(nc, niv, nnt)`` block and ``weights`` a
    :func:`moment_table` gathered on the block's index sets,
    ``table[:, nt[:, None], iv]``; the ``(n_mom, nc, nnt)`` result is
    written into ``out`` (C-contiguous complex128) or a new array; an
    ``out`` of shape ``(runs, n_mom, nc, nnt)`` splits the iv axis into
    equal runs, run ``k``'s moments going into ``out[k]``.  All moments
    come out of one batched real GEMM on the (re, im) columns of ``h``,
    one ``n_mom x run`` by ``run x 2`` product per (run, ic, n), so a
    run's moments are bit for bit those of a call on it alone.
    """
    n_mom, nnt, niv = weights.shape
    if h.shape[1:] != (niv, nnt):
        raise InputError(
            f"block shape {h.shape} inconsistent with {niv} iv / {nnt} nt indices"
        )
    nc = h.shape[0]
    chunked = out is not None and out.ndim == 4
    runs = out.shape[0] if chunked else 1
    shape = (runs,) * chunked + (n_mom, nc, nnt)
    out = np.empty(shape, dtype=np.complex128) if out is None else out
    if out.shape != shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise InputError(f"out must be a C-contiguous complex128 {shape} array")
    if not runs or niv % runs:
        raise InputError(f"{runs} runs do not split {niv} iv points evenly")
    run = niv // runs
    np.matmul(
        weights.reshape(n_mom, nnt, runs, run).transpose(2, 1, 0, 3)[:, :, None],
        real_columns(h).reshape(nc, runs, run, nnt, 2).transpose(1, 3, 0, 2, 4),
        out=real_columns(out).reshape(runs, n_mom, nc, nnt, 2).transpose(0, 3, 2, 1, 4),
    )  # batch (runs, nnt, nc): (n_mom, run) @ (run, 2) -> (n_mom, 2)
    return out


class FieldSolver:
    """Precomputed moment weights and dielectric for one input."""

    def __init__(self, inp: CgyroInput, dims: GridDims, vgrid: VelocityGrid) -> None:
        self.inp = inp
        self.dims = dims
        self.vgrid = vgrid
        nt = dims.nt
        self.j_table = flr_table(vgrid, inp.k_theta_rho, nt)  # (nv, nt)
        w = vgrid.flat_weights()
        spec = vgrid.flat_species()
        z = np.array([inp.species[s].z for s in spec])
        dens = np.array([inp.species[s].dens for s in spec])
        vth = np.array([inp.species[s].vth for s in spec])
        vpar = vgrid.flat_vpar()
        table = moment_table(
            self.j_table,
            np.stack([w * z * dens, w * np.abs(vpar), w * z * dens * vth * vpar]),
        )
        #: the field, upwind and (EM only) parallel-current weights
        #: :meth:`partial_moments` applies, shape (n_moments, nt, nv)
        self.moment_weights = table[: self.n_moments]
        #: per index set, the gathered (n_moments, nnt, niv) weights
        self._weights = PreparedSets(dims.nv, nt)
        #: flux-diagnostic weight ``w J``, shape (1, nt, nv)
        self.flux_weights = moment_table(self.j_table, w[None, :])
        #: dielectric, shape (nt,)
        self.dielectric = self._build_dielectric()
        #: Ampere dielectric for A_parallel (EM only), shape (nt,)
        self.apar_dielectric = self._build_apar_dielectric()

    @property
    def electromagnetic(self) -> bool:
        """Whether the run solves for A_parallel."""
        return self.inp.beta_e > 0.0

    @property
    def n_moments(self) -> int:
        """Moments accumulated per field solve (2 ES, 3 EM)."""
        return costs.n_moments(self.inp)

    def _build_dielectric(self) -> np.ndarray:
        d = np.full(self.dims.nt, self.inp.lambda_debye)
        w = self.vgrid.flat_weights()
        spec = self.vgrid.flat_species()
        for s, sp in enumerate(self.inp.species):
            mask = spec == s
            gamma_n = (w[mask, None] * self.j_table[mask, :] ** 2).sum(axis=0)
            d += sp.z**2 * sp.dens / sp.temp * (1.0 - gamma_n)
        if np.any(d <= 0):
            raise InputError("dielectric must be positive; increase lambda_debye")
        # i-delta model of non-adiabatic electrons: a phase shift in the
        # field response that opens the resistive-drift-wave growth
        # channel for n > 0 (a sweep parameter — not in the cmat
        # signature)
        delta = self.inp.nonadiabatic_delta
        if delta != 0.0:
            n_modes = np.arange(self.dims.nt)
            return d * (1.0 - 1j * delta * np.sign(n_modes))
        return d

    def _build_apar_dielectric(self) -> np.ndarray:
        """Ampere's-law response ``2 k_perp^2 / beta_e`` (+ Debye floor).

        Returns ones for electrostatic runs (never used there).
        """
        if not self.electromagnetic:
            return np.ones(self.dims.nt)
        n_modes = np.arange(self.dims.nt)
        k_perp2 = (self.inp.k_theta_rho * n_modes) ** 2
        return 2.0 * k_perp2 / self.inp.beta_e + self.inp.lambda_debye

    # ------------------------------------------------------------------
    def _prepare_weights(self, iv: np.ndarray, nt: np.ndarray) -> np.ndarray:
        weights = self.moment_weights[:, nt[:, None], iv]
        weights.flags.writeable = False
        return weights

    def partial_moments(
        self,
        h: np.ndarray,
        iv_idx: Sequence[int],
        nt_idx: Sequence[int],
        *,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Moment contributions of a velocity subset.

        Parameters
        ----------
        h:
            Field block, shape ``(nc, len(iv_idx), len(nt_idx))``.
        iv_idx, nt_idx:
            Global velocity / toroidal indices of the block's axes
            (checked, and their weights gathered, once per distinct set).
        out:
            Optional C-contiguous complex128 array to write the result
            into; one of shape ``(C, n_moments, nc, len(nt_idx))`` takes
            the moments of C equal runs of ``iv_idx`` (:func:`velocity_moments`).

        Returns
        -------
        Stacked partial moments, shape ``(n_moments, nc, len(nt_idx))``
        — row 0 the field moment, row 1 the upwind moment, row 2 (EM
        runs only) the parallel current — or ``out``'s shape.
        """
        return velocity_moments(h, self._weights.get(iv_idx, nt_idx, self._prepare_weights), out)

    def assemble(
        self, summed_moments: np.ndarray, nt_idx: Sequence[int]
    ) -> FieldState:
        """Fields from fully-summed moments.

        ``summed_moments`` is the sum of :meth:`partial_moments` over
        the *complete* velocity space, shape ``(n_moments, nc,
        len(nt_idx))``.
        """
        nt_idx = np.asarray(nt_idx)
        if summed_moments.shape[0] != self.n_moments:
            raise InputError(
                f"expected {self.n_moments} moment rows, got "
                f"{summed_moments.shape[0]}"
            )
        phi = summed_moments[0] / self.dielectric[nt_idx][None, :]
        psi_u = summed_moments[1]
        apar = None
        if self.electromagnetic:
            apar = summed_moments[2] / self.apar_dielectric[nt_idx][None, :]
        return FieldState(phi=phi, psi_u=psi_u, apar=apar)

    def solve_serial(self, h_global: np.ndarray) -> FieldState:
        """Reference field solve on the full ``(nc, nv, nt)`` tensor."""
        d = self.dims
        if h_global.shape != (d.nc, d.nv, d.nt):
            raise InputError(f"expected global shape, got {h_global.shape}")
        moments = self.partial_moments(h_global, range(d.nv), range(d.nt))
        return self.assemble(moments, range(d.nt))
