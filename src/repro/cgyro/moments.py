"""Velocity-space moment diagnostics.

Post-processing of the distribution function into the fluid-like
perturbations a physics analysis reads off — per species ``s``,
configuration point and toroidal mode:

    density        dn_s   = sum_iv w J h                (iv in s)
    parallel flow  du_s   = sum_iv w J vpar h / <w vpar^2>_s
    temperature    dT_s   = sum_iv w J (2/3)(e - 3/2) h

The weights reuse the field solver's FLR factor so these are the
*gyro-fluid* moments consistent with the solved fields.  Works on the
global tensor (serial analysis) or on any (iv, nt) block — partial
results over a velocity partition sum to the full moment, which is the
property a distributed reduction needs and the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InputError
from repro.cgyro.fields import FieldSolver, moment_table, velocity_moments


@dataclass(frozen=True)
class FluidMoments:
    """Per-species gyro-fluid perturbations.

    Arrays have shape ``(n_species, nc, n_modes)``.
    """

    density: np.ndarray
    parallel_flow: np.ndarray
    temperature: np.ndarray

    @property
    def n_species(self) -> int:
        """Number of species."""
        return self.density.shape[0]

    def __add__(self, other: "FluidMoments") -> "FluidMoments":
        return FluidMoments(
            density=self.density + other.density,
            parallel_flow=self.parallel_flow + other.parallel_flow,
            temperature=self.temperature + other.temperature,
        )


class MomentCalculator:
    """Computes :class:`FluidMoments` from distribution blocks."""

    def __init__(self, fields: FieldSolver) -> None:
        self.fields = fields
        self.dims = fields.dims
        vgrid = fields.vgrid
        w = vgrid.flat_weights()
        self._species = vgrid.flat_species()
        vpar = vgrid.flat_vpar()
        energy = vgrid.flat_energy()
        w_flow = np.zeros_like(w)
        for s in range(self.dims.n_species):
            mask = self._species == s
            norm = float((w[mask] * vpar[mask] ** 2).sum())
            w_flow[mask] = w[mask] * vpar[mask] / norm
        #: density, parallel-flow and temperature weights with the FLR
        #: factor applied, shape (3, nt, nv)
        self._weights = moment_table(
            fields.j_table, np.stack([w, w_flow, w * (2.0 / 3.0) * (energy - 1.5)])
        )

    def partial(
        self,
        h: np.ndarray,
        iv_idx: Sequence[int],
        nt_idx: Sequence[int],
    ) -> FluidMoments:
        """Moment contributions of an (iv, nt) block.

        Partial results over a partition of velocity space sum to the
        full moments.
        """
        iv = np.asarray(iv_idx)
        nt = np.asarray(nt_idx)
        if h.shape != (self.dims.nc, iv.size, nt.size):
            raise InputError(
                f"h shape {h.shape} != ({self.dims.nc}, {iv.size}, {nt.size})"
            )
        out = np.zeros((3, self.dims.n_species, self.dims.nc, nt.size), complex)
        spec = self._species[iv]
        for s in range(self.dims.n_species):
            mask = spec == s
            if mask.any():
                weights = self._weights[:, nt[:, None], iv[mask]]
                out[:, s] = velocity_moments(h[:, mask, :], weights)
        density, parallel_flow, temperature = out
        return FluidMoments(density, parallel_flow, temperature)

    def compute(self, h_global: np.ndarray) -> FluidMoments:
        """Moments of the full ``(nc, nv, nt)`` tensor."""
        d = self.dims
        if h_global.shape != (d.nc, d.nv, d.nt):
            raise InputError(f"expected global shape, got {h_global.shape}")
        return self.partial(h_global, range(d.nv), range(d.nt))
