"""The CGYRO-like solver substrate.

A reduced-physics but complete-in-structure spectral drift-kinetic
solver with CGYRO's three phases (streaming / nonlinear / collisional),
tensor layouts, communicator structure and timing categories.  See
DESIGN.md section 2 for exactly what is preserved relative to the real
code and why it suffices for the paper's claims.

Entry points:

- :class:`CgyroInput` + presets — validated inputs;
- :class:`CgyroSimulation` — the distributed solver (lockstep SPMD on
  a :class:`~repro.vmpi.VirtualWorld`);
- :class:`SerialReference` — single-array reference implementation;
- :class:`PrivateCollisionScheme` — stock cmat placement (the thing
  XGYRO swaps out).
"""

from repro.cgyro.moments import MomentCalculator
from repro.cgyro.presets import linear_benchmark, nl03c_scaled, small_test
from repro.cgyro.reference import SerialReference
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.timing import render_report
