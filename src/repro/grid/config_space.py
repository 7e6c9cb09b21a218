"""Configuration-space grid.

Configuration space is (radial wavenumber, poloidal angle theta),
flattened to ``ic = ir * n_theta + itheta``.  The streaming phase
differentiates along theta (parallel streaming), which is why it needs
the *complete* nc dimension locally; this module provides the periodic
upwind/centered theta-derivative stencils as matrix-free operations on
arrays reshaped to ``(n_radial, n_theta, ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InputError
from repro.grid.dims import GridDims


@dataclass(frozen=True)
class ConfigGrid:
    """Radial wavenumbers and the periodic theta grid.

    Attributes
    ----------
    k_radial:
        Signed radial wavenumbers, shape ``(n_radial,)``, centered on 0.
    theta:
        Poloidal angle nodes on [-pi, pi), shape ``(n_theta,)``.
    d_theta:
        Grid spacing ``2*pi / n_theta``.
    """

    dims: GridDims
    k_radial: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    d_theta: float

    @classmethod
    def build(cls, dims: GridDims, *, box_length: float = 1.0) -> "ConfigGrid":
        """Construct the grid; ``box_length`` scales radial wavenumbers."""
        if box_length <= 0:
            raise InputError(f"box_length must be > 0, got {box_length}")
        nr = dims.n_radial
        # symmetric signed wavenumbers: -nr/2 ... nr/2-1 (FFT convention)
        k = (np.arange(nr) - nr // 2) * (2.0 * np.pi / box_length)
        theta = -np.pi + 2.0 * np.pi * np.arange(dims.n_theta) / dims.n_theta
        return cls(
            dims=dims,
            k_radial=k,
            theta=theta,
            d_theta=2.0 * np.pi / dims.n_theta,
        )

    # ------------------------------------------------------------------
    # theta stencils (act on axis 1 of (n_radial, n_theta, ...) arrays)
    # ------------------------------------------------------------------
    def _halo(self, values: np.ndarray) -> tuple:
        """``values`` as ``(n_radial, n_theta, ...)`` and a copy with a
        periodic ghost row each side of theta, whose slices ``pad[:, 2:]``
        / ``pad[:, :-2]`` are the neighbours ``v[j + 1]`` / ``v[j - 1]``."""
        if values.shape[0] != self.dims.nc:
            raise InputError(
                f"first axis must be nc={self.dims.nc}, got {values.shape[0]}"
            )
        nr, nth = self.dims.n_radial, self.dims.n_theta
        v = values.reshape((nr, nth) + values.shape[1:])
        pad = np.empty((nr, nth + 2) + values.shape[1:], dtype=values.dtype)
        pad[:, 1:-1] = v
        pad[:, 0] = v[:, -1]
        pad[:, -1] = v[:, 0]
        return v, pad

    def d_dtheta_centered(self, values: np.ndarray) -> np.ndarray:
        """Second-order centered d/dtheta along the theta coordinate.

        ``values`` has shape ``(nc, ...)``; returns the same shape.
        """
        _, pad = self._halo(values)
        out = np.subtract(pad[:, 2:], pad[:, :-2])
        out /= 2.0 * self.d_theta
        return out.reshape(values.shape)

    def d_dtheta_upwind_diss(self, values: np.ndarray) -> np.ndarray:
        """Upwind dissipation operator: ``-|D2| / (2*dtheta)``.

        The second-difference part of a first-order upwind stencil,
        ``(v_{j+1} - 2 v_j + v_{j-1}) / (2*dtheta)``.  Combined with the
        centered derivative and a |v_par| weight this yields the upwind
        scheme CGYRO's streaming phase uses; kept separate because the
        dissipation is weighted by |v_par| while the advection is
        weighted by v_par.
        """
        v, pad = self._halo(values)
        out = np.multiply(2.0, v)
        np.subtract(pad[:, 2:], out, out=out)
        out += pad[:, :-2]
        out /= 2.0 * self.d_theta
        return out.reshape(values.shape)

    def flat_k_radial(self) -> np.ndarray:
        """Radial wavenumber at each ``ic``, shape ``(nc,)``."""
        return np.repeat(self.k_radial, self.dims.n_theta)

    def flat_theta(self) -> np.ndarray:
        """Theta node at each ``ic``, shape ``(nc,)``."""
        return np.tile(self.theta, self.dims.n_radial)
