"""Validated solver input (the ``input.cgyro`` equivalent).

:class:`CgyroInput` is the complete parameter set of one simulation.
It cleanly separates the two classes of inputs the paper's argument
rests on:

- **cmat-relevant** parameters (grid resolution, collision model, time
  step) — exposed via :meth:`CgyroInput.cmat_signature`;
- **sweep** parameters (gradient drives, ExB shear, box length,
  nonlinear flag, initial condition, drive coefficients) — changing
  these between ensemble members leaves the shared cmat valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Tuple

from repro.errors import InputError
from repro.collision.params import DEFAULT_SPECIES, CollisionParams, SpeciesParams
from repro.collision.signature import CmatSignature
from repro.grid.dims import GridDims


@dataclass(frozen=True)
class CgyroInput:
    """All inputs of one simulation.

    Grid resolution
    ---------------
    ``n_radial, n_theta, n_energy, n_xi, n_species, n_toroidal`` as in
    :class:`~repro.grid.dims.GridDims`.

    Collision model (cmat-relevant)
    -------------------------------
    ``nu, energy_diff_coeff, flr_coeff, nu_profile_eps,
    conserve_momentum, species`` as in
    :class:`~repro.collision.params.CollisionParams`; plus ``delta_t``
    (baked into the implicit propagator).

    Physics drives (sweep parameters; cmat-irrelevant)
    --------------------------------------------------
    dlnndr, dlntdr:
        Per-species density/temperature gradient drives.
    gamma_e:
        ExB shear Doppler shift.
    nonadiabatic_delta:
        i-delta phase shift of the non-adiabatic electron response
        (resistive-drift-wave destabilisation knob).
    k_theta_rho:
        Poloidal wavenumber spacing per toroidal mode.
    drift_r_coeff:
        Radial component of the curvature drift (couples the drift to
        ``k_r sin(theta)``; breaks the radial-wavenumber degeneracy of
        the linear operator).
    beta_e:
        Electron plasma beta; 0 (default) runs electrostatic, > 0
        adds the A_parallel field via Ampere's law (electromagnetic
        runs, per the Sugama theory).  A sweep parameter: it does not
        enter cmat.
    drift_coeff, upwind_coeff, upwind_field_coeff, nl_coeff,
    lambda_debye, box_length:
        Model coefficients of the reduced solver.

    Numerics / run control
    ----------------------
    nonlinear:
        Enable the nl phase (quadratic toroidal bracket).
    steps_per_report:
        Time steps in one reporting interval (CGYRO's report cadence).
    amp, seed:
        Initial-condition amplitude and RNG seed.
    """

    name: str = "cgyro"
    # grid
    n_radial: int = 4
    n_theta: int = 8
    n_energy: int = 4
    n_xi: int = 8
    n_species: int = 2
    n_toroidal: int = 4
    # collision model (cmat-relevant)
    nu: float = 0.1
    energy_diff_coeff: float = 0.5
    flr_coeff: float = 0.01
    nu_profile_eps: float = 0.2
    conserve_momentum: bool = True
    conserve_energy: bool = False
    species: Tuple[SpeciesParams, ...] = field(default=DEFAULT_SPECIES)
    delta_t: float = 0.01
    # drives and model coefficients (sweep parameters)
    dlnndr: Tuple[float, ...] = (1.0, 1.0)
    dlntdr: Tuple[float, ...] = (3.0, 3.0)
    gamma_e: float = 0.0
    nonadiabatic_delta: float = 0.0
    k_theta_rho: float = 0.3
    drift_r_coeff: float = 0.25
    beta_e: float = 0.0
    drift_coeff: float = 0.5
    upwind_coeff: float = 0.5
    upwind_field_coeff: float = 0.02
    nl_coeff: float = 1.0
    lambda_debye: float = 1.0
    box_length: float = 1.0
    # numerics / run control
    nonlinear: bool = False
    steps_per_report: int = 10
    amp: float = 1e-3
    seed: int = 1

    def __post_init__(self) -> None:
        # every float is finite (a NaN passes each range check below)
        floats = [(name, getattr(self, name)) for name in _FLOAT_FIELDS]
        floats += [(name, v) for name in ("dlnndr", "dlntdr") for v in getattr(self, name)]
        floats += [
            (f"species {sp.name!r} {name}", getattr(sp, name))
            for sp in self.species
            for name in ("z", "mass", "dens", "temp")
        ]
        for name, value in floats:
            if not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        self.grid_dims()  # validates resolutions
        if len(self.species) != self.n_species:
            raise InputError(
                f"{len(self.species)} species defined but n_species={self.n_species}"
            )
        if len(self.dlnndr) != self.n_species or len(self.dlntdr) != self.n_species:
            raise InputError(
                "dlnndr/dlntdr must provide one value per species "
                f"(n_species={self.n_species})"
            )
        if self.delta_t <= 0:
            raise InputError(f"delta_t must be > 0, got {self.delta_t}")
        if self.steps_per_report < 1:
            raise InputError("steps_per_report must be >= 1")
        if self.k_theta_rho < 0:
            raise InputError("k_theta_rho must be >= 0")
        if self.lambda_debye <= 0:
            raise InputError("lambda_debye must be > 0")
        if self.upwind_coeff < 0 or self.upwind_field_coeff < 0:
            raise InputError("upwind coefficients must be >= 0")
        if self.beta_e < 0:
            raise InputError(f"beta_e must be >= 0, got {self.beta_e}")
        if self.amp <= 0:
            raise InputError("amp must be > 0")
        # CollisionParams re-validates its own fields:
        self.collision_params()

    # ------------------------------------------------------------------
    # derived objects
    # ------------------------------------------------------------------
    def grid_dims(self) -> GridDims:
        """Grid dimensions of this input."""
        return GridDims(
            n_radial=self.n_radial,
            n_theta=self.n_theta,
            n_energy=self.n_energy,
            n_xi=self.n_xi,
            n_species=self.n_species,
            n_toroidal=self.n_toroidal,
        )

    def collision_params(self) -> CollisionParams:
        """Collision-model parameters of this input."""
        return CollisionParams(
            nu=self.nu,
            energy_diff_coeff=self.energy_diff_coeff,
            flr_coeff=self.flr_coeff,
            nu_profile_eps=self.nu_profile_eps,
            conserve_momentum=self.conserve_momentum,
            conserve_energy=self.conserve_energy,
            species=self.species,
        )

    def cmat_signature(self) -> CmatSignature:
        """Fingerprint of every input influencing cmat."""
        return CmatSignature.from_parts(
            self.grid_dims(), self.collision_params(), self.delta_t
        )

    def with_updates(self, **overrides) -> "CgyroInput":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **overrides)


_FLOAT_FIELDS = tuple(f.name for f in fields(CgyroInput) if f.type == "float")
