"""Assembly of the full collision matrix ``C(ic, n)``.

Per species ``s`` on its ``(n_energy * n_xi)`` block (energy-major):

    C_s = rate_s * ( I_e  kron  L_xi  +  g_E * E_e  kron  I_xi )

with ``rate_s`` the classical per-species collision rate.  Species
blocks are assembled into a block-diagonal ``nv x nv`` matrix, then the
momentum-conserving projection couples the blocks (making the matrix
dense).  Two further dependencies give cmat its 4D shape
``(nv, nv, nc, nt)``:

- toroidal mode ``n``: an FLR-like gyro-diffusive diagonal damping
  ``-flr_coeff * n^2 * energy_iv`` (zero for ``n = 0``, so the axisym-
  metric mode keeps exact conservation);
- configuration ``ic``: a scalar collisionality profile
  ``s(ic) = 1 + eps * cos(theta_ic)`` multiplying the whole matrix.

Everything here is *constant in time* for fixed inputs — the property
that lets CGYRO precompute the propagator once, and XGYRO share it
across ensemble members.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import InputError
from repro.collision.conservation import apply_conservation
from repro.collision.energy_diff import energy_diffusion_matrix
from repro.collision.lorentz import lorentz_matrix
from repro.collision.params import CollisionParams
from repro.grid.config_space import ConfigGrid
from repro.grid.dims import GridDims
from repro.grid.velocity import VelocityGrid


class CollisionOperator:
    """Builds ``C(ic, n)`` matrices for one simulation's inputs."""

    def __init__(
        self,
        dims: GridDims,
        vgrid: VelocityGrid,
        cgrid: ConfigGrid,
        params: CollisionParams,
    ) -> None:
        if params.n_species != dims.n_species:
            raise InputError(
                f"collision params define {params.n_species} species, "
                f"grid has {dims.n_species}"
            )
        self.dims = dims
        self.vgrid = vgrid
        self.cgrid = cgrid
        self.params = params

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def species_block(self, s: int) -> np.ndarray:
        """Pitch + energy operator of species ``s`` (block size ne*nxi)."""
        if not 0 <= s < self.dims.n_species:
            raise InputError(f"species index {s} out of range")
        lor = lorentz_matrix(self.vgrid.xi, self.vgrid.xi_weights)
        ediff = energy_diffusion_matrix(
            self.vgrid.energy,
            self.vgrid.energy_weights,
            strength=self.params.energy_diff_coeff,
        )
        block = np.kron(np.eye(self.dims.n_energy), lor) + np.kron(
            ediff, np.eye(self.dims.n_xi)
        )
        return self.params.species_collision_rate(s) * block

    def base_matrix(self) -> np.ndarray:
        """Species-block-diagonal operator with conservation applied.

        Cached: the base matrix is independent of ``ic`` and ``n``.
        """
        return self._base_matrix_cached.copy()

    @cached_property
    def _base_matrix_cached(self) -> np.ndarray:
        nv = self.dims.nv
        block = self.dims.n_energy * self.dims.n_xi
        c0 = np.zeros((nv, nv))
        for s in range(self.dims.n_species):
            sl = slice(s * block, (s + 1) * block)
            c0[sl, sl] = self.species_block(s)
        if self.params.conserve_momentum or self.params.conserve_energy:
            spec = self.vgrid.flat_species()
            masses = np.array([self.params.species[s].mass for s in spec])
            temps = np.array([self.params.species[s].temp for s in spec])
            c0 = apply_conservation(
                c0,
                self.vgrid.flat_vpar(),
                self.vgrid.flat_energy(),
                self.vgrid.flat_weights(),
                masses,
                temps,
                species=spec,
                conserve_momentum=self.params.conserve_momentum,
                conserve_energy=self.params.conserve_energy,
            )
        c0.setflags(write=False)
        return c0

    def flr_diagonal(self, n_mode: int) -> np.ndarray:
        """FLR gyro-diffusive damping diagonal for toroidal mode ``n``."""
        if not 0 <= n_mode < self.dims.nt:
            raise InputError(f"toroidal mode {n_mode} out of range [0, {self.dims.nt})")
        return -self.params.flr_coeff * float(n_mode) ** 2 * self.vgrid.flat_energy()

    def mode_matrix(self, n_mode: int) -> np.ndarray:
        """``C_n`` = conserved base + FLR damping for mode ``n``."""
        mat = self.base_matrix()
        mat[np.diag_indices_from(mat)] += self.flr_diagonal(n_mode)
        return mat

    def nu_profile(self) -> np.ndarray:
        """Collisionality modulation ``s(ic)``, shape ``(nc,)``.

        Strictly positive by the ``|eps| < 1`` input constraint.
        """
        return 1.0 + self.params.nu_profile_eps * np.cos(self.cgrid.flat_theta())

    def matrix(self, ic: int, n_mode: int) -> np.ndarray:
        """Full collision matrix ``C(ic, n) = s(ic) * C_n``."""
        if not 0 <= ic < self.dims.nc:
            raise InputError(f"ic {ic} out of range [0, {self.dims.nc})")
        return self.nu_profile()[ic] * self.mode_matrix(n_mode)
