"""Collision schemes: where cmat lives and how the coll phase runs.

The paper's change is architecturally small but precise: stock CGYRO
*reuses* the str-phase nv communicator (comm_1) for the coll phase —
same processes transpose, same processes hold cmat slices — while
XGYRO must *separate* the two, because the ensemble-wide coll
communicator contains more processes than any member's str
communicator (Figures 1 vs 3).

That separation is this interface.  A :class:`CollisionScheme` decides
(a) which ranks hold which cmat blocks, and (b) which communicator the
str<->coll transposes run on:

- :class:`PrivateCollisionScheme` — stock CGYRO: cmat distributed over
  the simulation's own comm_1 groups (``nc_loc = nc / P1`` per rank).
- ``repro.xgyro.shared_cmat.SharedCmatScheme`` — the paper's
  optimisation: one cmat distributed over *all* ensemble ranks
  (``nc / (k * P1')`` per rank), coll transposes on the ensemble-wide
  communicator.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.collision.cmat import (
    CmatPropagator,
    CmatWindow,
    apply_flops,
    apply_propagator,
    cmat_block_bytes,
)
from repro.grid.transpose import transpose_coll_to_str, transpose_str_to_coll

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cgyro.solver import CgyroSimulation


class CollisionScheme(abc.ABC):
    """Strategy object for cmat placement and the coll phase."""

    @abc.abstractmethod
    def setup(self, sim: "CgyroSimulation") -> None:
        """Build/allocate this simulation's cmat share (called once)."""

    @abc.abstractmethod
    def step(self, sim: "CgyroSimulation") -> None:
        """Advance the collisional phase of ``sim`` in place."""

    @abc.abstractmethod
    def cmat_bytes_per_rank(self, sim: "CgyroSimulation") -> int:
        """Per-rank cmat footprint under this scheme."""


class PrivateCollisionScheme(CollisionScheme):
    """Stock CGYRO: per-simulation cmat on the comm_1 groups."""

    def __init__(self) -> None:
        self._cmat: Dict[int, CmatWindow] = {}
        self._prop: "CmatPropagator | None" = None

    def cmat_bytes_per_rank(self, sim: "CgyroSimulation") -> int:
        return cmat_block_bytes(sim.dims, sim.decomp.nc_loc, sim.decomp.nt_loc)

    def setup(self, sim: "CgyroSimulation") -> None:
        prop = self._prop = CmatPropagator(sim.collision_operator, dt=sim.inp.delta_t)
        nbytes = self.cmat_bytes_per_rank(sim)
        for local_rank, world_rank in enumerate(sim.ranks):
            i1, i2 = sim.decomp.coords_of(local_rank)
            ic_idx = range(*sim.decomp.nc_slice(i1).indices(sim.dims.nc))
            n_idx = range(*sim.decomp.nt_slice(i2).indices(sim.dims.nt))
            sim.world.ledgers[world_rank].alloc("cmat", nbytes)
            self._cmat[world_rank] = prop.build(ic_idx, n_idx)
            sim.world.charge_compute(
                world_rank,
                flops=prop.build_flops(len(ic_idx), len(n_idx)),
                category="cmat_build",
            )

    def step(self, sim: "CgyroSimulation") -> None:
        decomp = sim.decomp
        # str -> coll on each comm_1 group (the reused communicator)
        coll_blocks: Dict[int, np.ndarray] = {}
        with sim.world.phase("coll_comm"):
            for comm in sim.comm1.values():
                coll_blocks.update(transpose_str_to_coll(comm, sim.h, decomp))
        # implicit collisional advance
        for world_rank in sim.ranks:
            coll_blocks[world_rank] = apply_propagator(
                self._cmat[world_rank], coll_blocks[world_rank]
            )
        sim.world.charge_compute(
            sim.ranks,
            flops=apply_flops(decomp.nc_loc, decomp.nt_loc, sim.dims.nv),
            category="coll_compute",
        )
        # coll -> str back on the same communicator
        with sim.world.phase("coll_comm"):
            for comm in sim.comm1.values():
                back = transpose_coll_to_str(comm, coll_blocks, decomp)
                for r in comm.ranks:
                    sim.h[r][...] = back[r]
