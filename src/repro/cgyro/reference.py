"""Serial reference solver.

A single-array implementation of exactly the same mathematics as the
distributed solver — same RK4 staging, same chunk-free field solve,
same bracket, same implicit collision step.  It exists so that the
distributed code paths (CGYRO's layouts/transposes, and XGYRO's shared
cmat distribution) can be verified to numerical round-off:

    gather(distributed step) == reference step      (tests)

It is also a perfectly usable small-scale solver in its own right (see
``examples/quickstart.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import InputError
from repro.cgyro.fields import FieldSolver
from repro.cgyro.nonlinear import toroidal_bracket
from repro.cgyro.params import CgyroInput
from repro.cgyro.streaming import StreamingOperator
from repro.collision import CmatPropagator, CollisionOperator, apply_propagator
from repro.grid import ConfigGrid, VelocityGrid


def initial_condition(inp: CgyroInput) -> np.ndarray:
    """Deterministic random initial state, shape ``(nc, nv, nt)``.

    Used by both the serial reference and the distributed solver (which
    scatters it), so equivalence tests start from identical data.
    """
    d = inp.grid_dims()
    rng = np.random.default_rng(inp.seed)
    shape = (d.nc, d.nv, d.nt)
    return inp.amp * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class SerialReference:
    """Full-tensor solver advancing one simulation in place."""

    def __init__(self, inp: CgyroInput) -> None:
        self.inp = inp
        self.dims = inp.grid_dims()
        self.vgrid = VelocityGrid.build(self.dims)
        self.cgrid = ConfigGrid.build(self.dims, box_length=inp.box_length)
        self.fields = FieldSolver(inp, self.dims, self.vgrid)
        self.streaming = StreamingOperator(inp, self.dims, self.vgrid, self.cgrid)
        operator = CollisionOperator(
            self.dims, self.vgrid, self.cgrid, inp.collision_params()
        )
        propagator = CmatPropagator(operator, dt=inp.delta_t)
        #: full cmat: a (nc, nt, nv, nv) window onto the signature's distinct blocks
        self.cmat = propagator.build(range(self.dims.nc), range(self.dims.nt))
        self.h = initial_condition(inp)
        self.time = 0.0
        self.step_count = 0

    # ------------------------------------------------------------------
    # phase operators (exposed individually for phase-level testing)
    # ------------------------------------------------------------------
    def _rhs(self, state: np.ndarray) -> np.ndarray:
        f = self.fields.solve_serial(state)
        return self.streaming.rhs(
            state,
            f.phi,
            f.psi_u,
            range(self.dims.nv),
            range(self.dims.nt),
            apar=f.apar,
        )

    def streaming_step(self, h: Optional[np.ndarray] = None) -> np.ndarray:
        """One RK4 advance of the streaming phase."""
        if h is None:
            h = self.h
        dt = self.inp.delta_t
        k1 = self._rhs(h)
        k2 = self._rhs(h + 0.5 * dt * k1)
        k3 = self._rhs(h + 0.5 * dt * k2)
        k4 = self._rhs(h + dt * k3)
        return h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def nonlinear_step(self, h: Optional[np.ndarray] = None) -> np.ndarray:
        """Split-step explicit advance of the toroidal bracket."""
        if h is None:
            h = self.h
        phi = self.fields.solve_serial(h).phi
        bracket = toroidal_bracket(
            h,
            phi,
            self.cgrid.flat_k_radial(),
            k_theta_rho=self.inp.k_theta_rho,
            nl_coeff=self.inp.nl_coeff,
        )
        return h + self.inp.delta_t * bracket

    def collision_step(self, h: Optional[np.ndarray] = None) -> np.ndarray:
        """Implicit collisional advance via the precomputed propagator."""
        if h is None:
            h = self.h
        # cmat is (nc, nt, nv, nv); apply expects h as (nc, nv, nt)
        return apply_propagator(self.cmat, h)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one full time step (str -> nl -> coll) in place."""
        h = self.streaming_step(self.h)
        if self.inp.nonlinear:
            h = self.nonlinear_step(h)
        self.h = self.collision_step(h)
        self.time += self.inp.delta_t
        self.step_count += 1

    def run(self, n_steps: int) -> None:
        """Advance ``n_steps`` time steps."""
        if n_steps < 0:
            raise InputError(f"n_steps must be >= 0, got {n_steps}")
        for _ in range(n_steps):
            self.step()

    # ------------------------------------------------------------------
    # checkpoint / restart
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Write a checkpoint (interchangeable with the distributed one)."""
        from repro.cgyro.restart import save_checkpoint

        save_checkpoint(path, self.h, self.inp, step=self.step_count, time=self.time)

    def load_checkpoint(self, path) -> None:
        """Resume from a checkpoint (validates physics compatibility)."""
        from repro.cgyro.restart import load_checkpoint

        self.h, self.step_count, self.time = load_checkpoint(path, self.inp)

    # ------------------------------------------------------------------
    def diagnostics(self) -> Dict[str, np.ndarray]:
        """Flux spectrum and field amplitude per toroidal mode."""
        phi = self.fields.solve_serial(self.h).phi
        from repro.cgyro.diagnostics import flux_spectrum

        q = flux_spectrum(
            self.h,
            phi,
            self.fields,
            range(self.dims.nv),
            range(self.dims.nt),
            k_theta_rho=self.inp.k_theta_rho,
        )
        return {"flux": q, "phi2": (np.abs(phi) ** 2).sum(axis=0)}
