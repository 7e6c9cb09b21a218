"""Collision operator and the collisional constant tensor ``cmat``.

This package is the reproduction's stand-in for CGYRO's Sugama
collision operator (DESIGN.md section 2).  It builds, per configuration
point ``ic`` and toroidal mode ``n``, a dense ``nv x nv`` collision
matrix composed of:

- Lorentz pitch-angle scattering (Legendre-spectral, exact on the
  Gauss-Legendre pitch grid),
- energy diffusion (symmetric, particle-conserving),
- momentum-restoring conservation corrections coupling species, and
- an FLR-like gyro-diffusive damping that carries the toroidal-mode
  dependence.

The *constant tensor* ``cmat`` stores the implicit propagator
``(I - dt * C(ic, n))^{-1}`` — computed once per simulation and applied
every collisional step, trading memory (``nv^2 * nc * nt`` doubles) for
an order-of-magnitude cheaper implicit solve, exactly the trade-off the
paper describes.  :class:`CmatSignature` captures which inputs influence
the tensor's values; ensembles whose members share a signature can share
one distributed copy (the XGYRO optimisation).
"""

from repro.collision.cmat import CmatPropagator, apply_propagator
from repro.collision.operator import CollisionOperator
