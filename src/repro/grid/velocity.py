"""Velocity-space grid and quadrature.

The drift-kinetic velocity space is (energy, pitch angle, species):

- pitch angle ``xi = v_par / v`` on Gauss-Legendre nodes over [-1, 1]
  (the natural grid for the Lorentz collision operator, whose
  eigenfunctions are Legendre polynomials);
- normalised energy ``e = v^2 / v_th^2`` on generalized Gauss-Laguerre
  nodes with weight ``sqrt(e) * exp(-e)``, so Maxwellian-weighted
  velocity integrals are exact for polynomial integrands.  The nodes are
  scipy's ``roots_genlaguerre(n, 0.5)``, read up to n = 16 from its bytes
  in ``genlaguerre_half.txt``; only a grid of more nodes imports scipy.

The combined quadrature weight is normalised so that the integral of a
unit function against the Maxwellian is exactly 1 per species, which
gives the field solve and the conservation tests a crisp invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from repro.errors import InputError
from repro.grid.dims import GridDims

#: line ``n`` holds roots_genlaguerre(n, 0.5)'s nodes, then its weights
_GENLAGUERRE_HALF = Path(__file__).with_name("genlaguerre_half.txt")


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
    @lru_cache(maxsize=None)
    def build(cls, dims: GridDims) -> "VelocityGrid":
        """Construct the quadrature for the given dimensions, once per
        ``dims`` in a process: its arrays are read-only."""
        if dims.n_xi < 2:
            raise InputError(f"n_xi must be >= 2 for a pitch grid, got {dims.n_xi}")
        xi, wxi = leggauss(dims.n_xi)
        wxi = wxi / wxi.sum()
        # weight sqrt(e) e^{-e}: generalized Laguerre with alpha = 1/2
        table = _GENLAGUERRE_HALF.read_text().splitlines()
        if dims.n_energy < len(table):
            hexes = table[dims.n_energy].split()
            e, we = np.array(list(map(float.fromhex, hexes))).reshape(2, -1)
        else:
            from scipy.special import roots_genlaguerre  # only n_energy > 16 loads scipy
            e, we = roots_genlaguerre(dims.n_energy, 0.5)
        we = we / we.sum()
        for a in (xi, wxi, e, we):
            a.flags.writeable = False
        return cls(dims, xi, wxi, e, we)

    # ------------------------------------------------------------------
    # flattened per-iv arrays
    # ------------------------------------------------------------------
    def flat_energy(self) -> np.ndarray:
        """Energy node at each ``iv``, shape ``(nv,)``."""
        return np.tile(np.repeat(self.energy, self.dims.n_xi), self.dims.n_species)

    def flat_xi(self) -> np.ndarray:
        """Pitch node at each ``iv``, shape ``(nv,)``."""
        return np.tile(self.xi, self.dims.n_energy * self.dims.n_species)

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
