"""Conservation corrections for the collision operator.

The bare Lorentz + energy-diffusion operator drains parallel momentum
(the ``l = 1`` Legendre moment decays).  Physical collision operators
restore it through field-particle terms.  We implement the restoration
as a *projection*: the corrected operator is

    C = Q C0 Q,    Q = I - P,

where ``P`` projects onto the momentum direction ``vpar`` orthogonally
in the mass-weighted quadrature inner product
``<f, g>_u = sum_i u_i f_i g_i`` with ``u_i = w_i * m_{s(i)}``.

Because ``Q`` is u-self-adjoint this construction *provably* keeps the
three invariants the tests check:

- total parallel momentum is exactly conserved (``C vpar = 0`` and
  ``u^T C = 0`` on the momentum component),
- particle number stays exactly conserved (``Q`` fixes constants since
  ``<1, vpar>_u = 0`` on a symmetric pitch grid),
- dissipativity survives (``<f, C f>_u = <Qf, C0 Qf>_u <= 0``).

It also couples the species blocks into one dense ``nv x nv`` matrix —
the reason cmat is dense in velocity space.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InputError


def momentum_projector(
    vpar: np.ndarray, weights: np.ndarray, masses: np.ndarray
) -> np.ndarray:
    """u-orthogonal projector ``P`` onto the parallel-momentum direction.

    Parameters
    ----------
    vpar:
        Parallel velocity at each ``iv``, shape ``(nv,)``.
    weights:
        Quadrature weights at each ``iv``, shape ``(nv,)``.
    masses:
        Species mass at each ``iv``, shape ``(nv,)``.
    """
    if not (vpar.shape == weights.shape == masses.shape) or vpar.ndim != 1:
        raise InputError("vpar, weights, masses must be 1D arrays of equal length")
    u = weights * masses
    norm = float(vpar @ (u * vpar))
    if norm <= 0:
        raise InputError("momentum norm must be positive (degenerate vpar grid?)")
    return np.outer(vpar, u * vpar) / norm


def energy_direction(
    energy: np.ndarray,
    weights: np.ndarray,
    masses: np.ndarray,
    temps: np.ndarray,
    species: "np.ndarray | None" = None,
) -> np.ndarray:
    """Energy-restoring direction, centred *per species*.

    The conserved kinetic-energy functional is ``E[f] = sum w T e f =
    <(T/m) e, f>_u``.  The direction is centred species by species —
    ``d = (T_s/m_s)(e - <e>_s)`` with the species' quadrature mean —
    which simultaneously makes it w- and u-orthogonal to every
    per-species constant (mass is constant within a species, so the two
    weightings coincide).  That is exactly what keeps per-species
    particle conservation and the constant kernel intact when the
    energy projector is applied; a global centring would leak particles
    between the conservation channels.  Parity makes it u-orthogonal to
    the momentum direction ``vpar`` automatically.
    """
    if not (energy.shape == weights.shape == masses.shape == temps.shape):
        raise InputError("energy, weights, masses, temps must share a shape")
    if species is None:
        species = np.zeros(energy.shape, dtype=int)
    if species.shape != energy.shape:
        raise InputError("species must share the grid shape")
    scaled = temps / masses * energy
    out = np.empty_like(scaled)
    for s in sorted(set(species.tolist())):
        mask = species == s
        mean = float(weights[mask] @ scaled[mask]) / float(weights[mask].sum())
        out[mask] = scaled[mask] - mean
    return out


def apply_conservation(
    c0: np.ndarray,
    vpar: np.ndarray,
    energy: np.ndarray,
    weights: np.ndarray,
    masses: np.ndarray,
    temps: np.ndarray,
    *,
    species: "np.ndarray | None" = None,
    conserve_momentum: bool = True,
    conserve_energy: bool = False,
) -> np.ndarray:
    """Project ``c0`` onto the complement of the conserved directions.

    Returns ``Q C0 Q`` where ``Q`` removes the span of the requested
    invariant directions (momentum ``vpar``, centred energy) in the
    mass-weighted quadrature inner product.  The two directions are
    u-orthogonal, so their projectors commute and the combined ``Q``
    keeps the conservation, dissipativity and constant-kernel
    properties of the single-projector construction.
    """
    nv = vpar.size
    if c0.shape != (nv, nv):
        raise InputError(f"c0 must be ({nv}, {nv}), got {c0.shape}")
    q = np.eye(nv)
    u = weights * masses
    if conserve_momentum:
        q = q - momentum_projector(vpar, weights, masses)
    if conserve_energy:
        d = energy_direction(energy, weights, masses, temps, species)
        norm = float(d @ (u * d))
        if norm <= 0:
            raise InputError("energy direction norm must be positive")
        q = q - np.outer(d, u * d) / norm
    return q @ c0 @ q
