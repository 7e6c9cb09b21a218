"""Phase-space grid and domain decomposition.

CGYRO state lives on 3D tensors over *(nc, nv, nt)*:

- ``nc = n_radial * n_theta`` — configuration space,
- ``nv = n_energy * n_xi * n_species`` — velocity space,
- ``nt = n_toroidal`` — toroidal mode numbers.

This package provides the grid definitions (:class:`GridDims`,
:class:`VelocityGrid`, :class:`ConfigGrid`), the processor-grid
decomposition (:class:`Decomposition`: ``P1`` ranks split nv in the
streaming phase / nc in the collisional phase, ``P2`` ranks split nt),
and the data layouts plus AllToAll transposes that move a distributed
field between the three phase layouts (Figure 1 of the paper).
"""

from repro.grid.config_space import ConfigGrid
from repro.grid.decomp import Decomposition
from repro.grid.dims import GridDims
from repro.grid.velocity import VelocityGrid
