"""Which inputs influence cmat — the shareability contract.

The paper: "A careful analysis of cmat construction shows that only a
subset of the input parameters influences its value, and there are many
fusion studies that do not change them between simulation runs."

:class:`CmatSignature` is that subset, made explicit.  Two simulations
can share one cmat if and only if their signatures are equal.  The
XGYRO ensemble validator compares member signatures and reports the
precise offending fields on mismatch — turning the paper's informal
observation into an enforced, testable contract.

Notably *absent* from the signature (and covered by tests): the
gradient drives (``dlnn_dr``/``dlnt_dr``), the ExB shear, the box
length, the nonlinear flag, and the initial-condition seed — the knobs
parameter-sweep studies actually vary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Tuple

from repro.collision.params import CollisionParams, SpeciesParams
from repro.grid.dims import GridDims


@dataclass(frozen=True)
class CmatSignature:
    """Hashable fingerprint of every input cmat depends on."""

    # velocity-space resolution: defines the nv x nv matrix itself
    n_energy: int
    n_xi: int
    n_species: int
    # configuration/toroidal resolution: defines the (ic, n) index sets
    n_radial: int
    n_theta: int
    n_toroidal: int
    # collision model knobs
    nu: float
    energy_diff_coeff: float
    flr_coeff: float
    nu_profile_eps: float
    conserve_momentum: bool
    conserve_energy: bool
    species: Tuple[SpeciesParams, ...]
    # the implicit solve bakes dt into the propagator values
    dt: float

    @classmethod
    def from_parts(
        cls, dims: GridDims, params: CollisionParams, dt: float
    ) -> "CmatSignature":
        """Build the signature from grid dims + collision params + dt."""
        return cls(
            n_energy=dims.n_energy,
            n_xi=dims.n_xi,
            n_species=dims.n_species,
            n_radial=dims.n_radial,
            n_theta=dims.n_theta,
            n_toroidal=dims.n_toroidal,
            nu=params.nu,
            energy_diff_coeff=params.energy_diff_coeff,
            flr_coeff=params.flr_coeff,
            nu_profile_eps=params.nu_profile_eps,
            conserve_momentum=params.conserve_momentum,
            conserve_energy=params.conserve_energy,
            species=tuple(params.species),
            dt=float(dt),
        )

    def diff(self, other: "CmatSignature") -> Tuple[str, ...]:
        """Names of fields on which the two signatures disagree."""
        return tuple(
            f.name
            for f in fields(self)
            if getattr(self, f.name) != getattr(other, f.name)
        )

    def content_hash(self) -> str:
        """Stable hex digest of every field — the content address.

        Unlike :func:`hash`, this survives process boundaries (no hash
        randomisation), so it can key on-disk artefacts and the
        campaign scheduler's cross-job cmat cache.  Floats are encoded
        via :func:`repr`, which round-trips doubles exactly.
        """
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "species":
                value = tuple(
                    (sp.name, sp.z, sp.mass, sp.dens, sp.temp) for sp in value
                )
            parts.append(f"{f.name}={value!r}")
        return hashlib.sha256(";".join(parts).encode()).hexdigest()
