"""Velocity-space grid and quadrature.

The drift-kinetic velocity space is (energy, pitch angle, species):

- pitch angle ``xi = v_par / v`` on Gauss-Legendre nodes over [-1, 1]
  (the natural grid for the Lorentz collision operator, whose
  eigenfunctions are Legendre polynomials);
- normalised energy ``e = v^2 / v_th^2`` on generalized Gauss-Laguerre
  nodes with weight ``sqrt(e) * exp(-e)``, so Maxwellian-weighted
  velocity integrals are exact for polynomial integrands.

The combined quadrature weight is normalised so that the integral of a
unit function against the Maxwellian is exactly 1 per species, which
gives the field solve and the conservation tests a crisp invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss
import scipy.linalg  # noqa: F401 -- roots_genlaguerre's first call imports it: pay it here
from scipy.special import roots_genlaguerre

from repro.errors import InputError
from repro.grid.dims import GridDims


@dataclass(frozen=True)
class VelocityGrid:
    """Quadrature nodes/weights over (species, energy, pitch).

    Flattened arrays are indexed by ``iv`` in the canonical
    species-major ordering of :class:`~repro.grid.dims.GridDims`.

    Attributes
    ----------
    xi:
        Pitch-angle nodes, shape ``(n_xi,)``.
    xi_weights:
        Pitch weights normalised to sum to 1 (so the pitch average of 1
        is 1).
    energy:
        Energy nodes, shape ``(n_energy,)``.
    energy_weights:
        Energy weights normalised to sum to 1.
    """

    dims: GridDims
    xi: np.ndarray = field(repr=False)
    xi_weights: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    energy_weights: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, dims: GridDims) -> "VelocityGrid":
        """Construct the quadrature for the given dimensions."""
        if dims.n_xi < 2:
            raise InputError(f"n_xi must be >= 2 for a pitch grid, got {dims.n_xi}")
        xi, wxi = leggauss(dims.n_xi)
        wxi = wxi / wxi.sum()
        # weight sqrt(e) e^{-e}: generalized Laguerre with alpha = 1/2
        e, we = roots_genlaguerre(dims.n_energy, 0.5)
        we = we / we.sum()
        return cls(
            dims=dims,
            xi=xi,
            xi_weights=wxi,
            energy=e,
            energy_weights=we,
        )

    # ------------------------------------------------------------------
    # flattened per-iv arrays
    # ------------------------------------------------------------------
    def _per_species_grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """(energy, xi) meshgrids flattened to one species block."""
        e_grid = np.repeat(self.energy, self.dims.n_xi)
        xi_grid = np.tile(self.xi, self.dims.n_energy)
        return e_grid, xi_grid

    def flat_energy(self) -> np.ndarray:
        """Energy node at each ``iv``, shape ``(nv,)``."""
        e_grid, _ = self._per_species_grid()
        return np.tile(e_grid, self.dims.n_species)

    def flat_xi(self) -> np.ndarray:
        """Pitch node at each ``iv``, shape ``(nv,)``."""
        _, xi_grid = self._per_species_grid()
        return np.tile(xi_grid, self.dims.n_species)

    def flat_species(self) -> np.ndarray:
        """Species index at each ``iv``, shape ``(nv,)``, dtype int."""
        block = self.dims.n_energy * self.dims.n_xi
        return np.repeat(np.arange(self.dims.n_species), block)

    def flat_weights(self) -> np.ndarray:
        """Maxwellian quadrature weight at each ``iv``, shape ``(nv,)``.

        Within one species the weights sum to exactly 1.
        """
        w = np.outer(self.energy_weights, self.xi_weights).ravel()
        return np.tile(w, self.dims.n_species)

    def flat_vpar(self) -> np.ndarray:
        """Parallel velocity ``sqrt(e) * xi`` at each ``iv``."""
        return np.sqrt(self.flat_energy()) * self.flat_xi()
