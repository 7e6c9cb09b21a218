"""The distributed CGYRO-like solver.

:class:`CgyroSimulation` runs one simulation on an ordered set of
world ranks in lockstep SPMD: per-rank STR-layout blocks are held in
``self.h`` (keyed by world rank), phases advance them through the
communicator structure of Figure 1:

- **str**: RK4 with a field solve per stage.  Velocity moments are
  accumulated in *chunks* of the local velocity space, with one
  AllReduce over the comm_1 group per chunk (pipelined partial-
  transform aggregation — CGYRO's ``field``/``upwind`` reductions).
  The per-rank call count therefore scales with ``nv_loc``, and each
  call's cost with the comm_1 group size — the interplay the paper's
  Figure 2 turns on (DESIGN.md section 5).
- **nl** (optional): str->nl AllToAll on comm_2, toroidal bracket,
  back.
- **coll**: delegated to the installed
  :class:`~repro.cgyro.collision_scheme.CollisionScheme` — the seam
  XGYRO replaces.

All per-rank buffers are registered in the machine's memory ledgers,
so memory questions ("does this fit on N nodes?") are measured, not
estimated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InputError, VmpiError
from repro.cgyro import costs
from repro.cgyro.collision_scheme import CollisionScheme, PrivateCollisionScheme
from repro.cgyro.diagnostics import flux_spectrum
from repro.cgyro.fields import FieldSolver, FieldState
from repro.cgyro.nonlinear import toroidal_bracket
from repro.cgyro.params import CgyroInput
from repro.cgyro.reference import initial_condition
from repro.cgyro.streaming import StreamingOperator
from repro.cgyro.timing import ReportRow, delta, snapshot
from repro.collision import CollisionOperator
from repro.grid import (
    ConfigGrid,
    Decomposition,
    Layout,
    VelocityGrid,
    gather_global,
    scatter_global,
    transpose_nl_to_str,
    transpose_str_to_nl,
)
from repro.grid.layouts import nc_nl_slice
from repro.vmpi import Communicator, VirtualWorld

#: Valid compute/comm overlap modes.  ``off`` is bit-identical to the
#: historical blocking schedule; ``str`` pipelines the field-solve
#: AllReduces (posted nonblocking, waited one chunk later); ``coll``
#: pipelines the ensemble collision AllToAlls against the propagator
#: applies (XGYRO only); ``full`` enables both.
OVERLAP_MODES = ("off", "str", "coll", "full")


class CgyroSimulation:
    """One simulation distributed over a set of world ranks.

    Parameters
    ----------
    world:
        The virtual world (shared with other ensemble members under
        XGYRO).
    ranks:
        Ordered world ranks of this simulation; local rank ``lr`` maps
        to ``ranks[lr]`` with the P1-fastest CGYRO ordering.
    inp:
        The validated input.
    collision_scheme:
        cmat placement/coll-phase strategy; defaults to the stock
        per-simulation :class:`PrivateCollisionScheme`.
    label:
        Communicator/report label; defaults to ``inp.name``.
    overlap:
        One of :data:`OVERLAP_MODES`.  ``"str"``/``"full"`` switch the
        field solve to the nonblocking pipelined schedule (one
        aggregated iallreduce per comm_1 group per chunk, posted before
        the next chunk's moment computation and waited at first use).
        Physics is bit-identical in every mode; only the modeled
        schedule (and hence cost attribution) changes.
    """

    def __init__(
        self,
        world: VirtualWorld,
        ranks: Sequence[int],
        inp: CgyroInput,
        *,
        collision_scheme: Optional[CollisionScheme] = None,
        label: Optional[str] = None,
        overlap: str = "off",
    ) -> None:
        if overlap not in OVERLAP_MODES:
            raise InputError(
                f"overlap must be one of {OVERLAP_MODES}, got {overlap!r}"
            )
        self.overlap = overlap
        self.world = world
        self.ranks: Tuple[int, ...] = tuple(int(r) for r in ranks)
        if len(set(self.ranks)) != len(self.ranks):
            raise VmpiError(f"duplicate ranks in simulation: {self.ranks}")
        self.inp = inp
        self.label = label or inp.name
        self.dims = inp.grid_dims()
        self.decomp = Decomposition.choose(self.dims, len(self.ranks))
        #: what this decomposition's kernels are charged, fixed for the run
        self.costs = costs.KernelCosts.of(inp, self.decomp)
        self.vgrid = VelocityGrid.build(self.dims)
        self.cgrid = ConfigGrid.build(self.dims, box_length=inp.box_length)
        self.fields = FieldSolver(inp, self.dims, self.vgrid)
        self.streaming = StreamingOperator(inp, self.dims, self.vgrid, self.cgrid)
        self.collision_operator = CollisionOperator(
            self.dims, self.vgrid, self.cgrid, inp.collision_params()
        )
        # communicators (Figure 1)
        self.comm_sim = Communicator(world, self.ranks, label=f"{self.label}.sim")
        self.comm1: Dict[int, Communicator] = {
            i2: self.comm_sim.sub(
                [self.ranks[lr] for lr in self.decomp.group_ranks(i2)],
                label=f"{self.label}.comm1.g{i2}",
            )
            for i2 in range(self.decomp.n_proc_2)
        }
        self.comm2: Dict[int, Communicator] = {
            i1: self.comm_sim.sub(
                [self.ranks[lr] for lr in self.decomp.cross_group_ranks(i1)],
                label=f"{self.label}.comm2.c{i1}",
            )
            for i1 in range(self.decomp.n_proc_1)
        }
        self._allocate_buffers()
        self.scheme: CollisionScheme = collision_scheme or PrivateCollisionScheme()
        self.scheme.setup(self)
        # initial state: scatter the deterministic global condition
        blocks = scatter_global(initial_condition(inp), Layout.STR, self.decomp)
        self.h: Dict[int, np.ndarray] = {
            self.ranks[lr]: blocks[lr] for lr in range(self.decomp.n_proc)
        }
        self.time = 0.0
        self.step_count = 0

    # ------------------------------------------------------------------
    # topology helpers
    # ------------------------------------------------------------------
    def local_coords(self, world_rank: int) -> Tuple[int, int]:
        """Grid coordinates (i1, i2) of a member world rank."""
        return self.decomp.coords_of(self.comm_sim.comm_rank(world_rank))

    def iv_idx(self, world_rank: int) -> range:
        """Global velocity indices owned by ``world_rank`` (STR layout)."""
        i1, _ = self.local_coords(world_rank)
        return range(*self.decomp.nv_slice(i1).indices(self.dims.nv))

    def nt_idx(self, world_rank: int) -> range:
        """Global toroidal indices owned by ``world_rank``."""
        _, i2 = self.local_coords(world_rank)
        return range(*self.decomp.nt_slice(i2).indices(self.dims.nt))

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def _allocate_buffers(self) -> None:
        """Register the solver's per-rank state buffers
        (:func:`repro.cgyro.costs.state_buffers`) in the ledgers."""
        sizes = costs.state_buffers(self.inp, self.decomp)
        for world_rank in self.ranks:
            ledger = self.world.ledgers[world_rank]
            for name, nbytes in sizes.items():
                ledger.alloc(f"{self.label}.{name}", nbytes)

    def state_bytes_per_rank(self) -> int:
        """Non-cmat per-rank footprint (sum of registered state buffers)."""
        ledger = self.world.ledgers[self.ranks[0]]
        return sum(
            nbytes
            for name, nbytes in ledger.breakdown().items()
            if name.startswith(f"{self.label}.")
        )

    # ------------------------------------------------------------------
    # str phase
    # ------------------------------------------------------------------
    def _field_chunks(self) -> List[range]:
        """Local velocity-chunk index ranges for pipelined aggregation."""
        return list(self.costs.chunks)

    def _solve_fields(
        self,
        state: Dict[int, np.ndarray],
        *,
        comm_category: str = "str_comm",
        compute_category: str = "str_compute",
    ) -> Dict[int, FieldState]:
        """Chunked, AllReduced field solve on the given STR-layout state.

        Returns a per-rank :class:`FieldState` (identical within each
        comm_1 group).  The category overrides let once-per-interval
        callers (diagnostics) attribute their charges outside the
        per-step phase timers.
        """
        d, dec = self.dims, self.decomp
        kc = self.costs
        n_mom = kc.n_moments
        acc: Dict[int, np.ndarray] = {
            r: np.zeros((n_mom, d.nc, dec.nt_loc), dtype=np.complex128)
            for r in self.ranks
        }
        overlapped = self.overlap in ("str", "full")
        pending: List = []

        def drain() -> None:
            for req in pending:
                summed = req.wait()
                for r in summed:
                    acc[r] += summed[r]
            pending.clear()

        for chunk, moment_flops in zip(kc.chunks, kc.chunk_moment_flops):
            partials: Dict[int, np.ndarray] = {}
            for r in self.ranks:
                iv_global = self.iv_idx(r)
                iv_sel = [iv_global[i] for i in chunk]
                partials[r] = self.fields.partial_moments(
                    state[r][:, chunk.start : chunk.stop, :], iv_sel, self.nt_idx(r)
                )
            self.world.charge_compute(
                self.ranks,
                flops=moment_flops,
                category=compute_category,
            )
            if overlapped:
                # wait the previous chunk's reductions (their cost has
                # been accruing under this chunk's moment compute), then
                # post this chunk's — one aggregated iallreduce per
                # comm_1 group carrying all moments at once.  The sum is
                # bit-identical: elementwise over ranks either way.
                drain()
                with self.world.phase(comm_category):
                    pending.extend(
                        comm.iallreduce({r: partials[r] for r in comm.ranks})
                        for comm in self.comm1.values()
                    )
            else:
                # each moment is reduced separately, as in CGYRO
                with self.world.phase(comm_category):
                    for moment in range(n_mom):
                        for comm in self.comm1.values():
                            summed = comm.allreduce(
                                {r: partials[r][moment] for r in comm.ranks}
                            )
                            for r in comm.ranks:
                                acc[r][moment] += summed[r]
        drain()
        fields: Dict[int, FieldState] = {}
        for r in self.ranks:
            fields[r] = self.fields.assemble(acc[r], self.nt_idx(r))
        self.world.charge_compute(
            self.ranks,
            flops=kc.field_solve_flops,
            category=compute_category,
        )
        return fields

    def _streaming_rhs(
        self, state: Dict[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Field solve + RHS evaluation for one RK stage."""
        fields = self._solve_fields(state)
        rhs: Dict[int, np.ndarray] = {}
        for r in self.ranks:
            f = fields[r]
            rhs[r] = self.streaming.rhs(
                state[r],
                f.phi,
                f.psi_u,
                self.iv_idx(r),
                self.nt_idx(r),
                apar=f.apar,
            )
        self.world.charge_compute(
            self.ranks, flops=self.costs.rhs_flops, category="str_compute"
        )
        return rhs

    def streaming_phase(self) -> None:
        """RK4 advance of the streaming phase (in place)."""
        dt = self.inp.delta_t
        h = self.h
        k1 = self._streaming_rhs(h)
        k2 = self._streaming_rhs({r: h[r] + 0.5 * dt * k1[r] for r in self.ranks})
        k3 = self._streaming_rhs({r: h[r] + 0.5 * dt * k2[r] for r in self.ranks})
        k4 = self._streaming_rhs({r: h[r] + dt * k3[r] for r in self.ranks})
        for r in self.ranks:
            self.h[r] = h[r] + (dt / 6.0) * (
                k1[r] + 2.0 * k2[r] + 2.0 * k3[r] + k4[r]
            )
        self.world.charge_compute(
            self.ranks, flops=self.costs.rk_combine_flops, category="str_compute"
        )

    # ------------------------------------------------------------------
    # nl phase
    # ------------------------------------------------------------------
    def nonlinear_phase(self) -> None:
        """Split-step toroidal bracket via the comm_2 transposes."""
        if not self.inp.nonlinear:
            return
        d, dec = self.dims, self.decomp
        fields = self._solve_fields(self.h)
        # move h and phi to the NL layout (nt complete)
        with self.world.phase("nl_comm"):
            h_nl: Dict[int, np.ndarray] = {}
            phi_nl: Dict[int, np.ndarray] = {}
            for comm in self.comm2.values():
                h_nl.update(
                    transpose_str_to_nl(comm, {r: self.h[r] for r in comm.ranks}, dec)
                )
                send = {
                    r: [
                        fields[r].phi[nc_nl_slice(dec, j), :]
                        for j in range(comm.size)
                    ]
                    for r in comm.ranks
                }
                recv = comm.alltoall(send)
                for r in comm.ranks:
                    phi_nl[r] = np.concatenate(recv[r], axis=1)
        k_r = self.cgrid.flat_k_radial()
        dt = self.inp.delta_t
        for r in self.ranks:
            _, i2 = self.local_coords(r)
            sl = nc_nl_slice(dec, i2)
            bracket = toroidal_bracket(
                h_nl[r],
                phi_nl[r],
                k_r[sl],
                k_theta_rho=self.inp.k_theta_rho,
                nl_coeff=self.inp.nl_coeff,
            )
            h_nl[r] = h_nl[r] + dt * bracket
        self.world.charge_compute(
            self.ranks, flops=self.costs.nl_flops, category="nl_compute"
        )
        with self.world.phase("nl_comm"):
            for comm in self.comm2.values():
                back = transpose_nl_to_str(
                    comm, {r: h_nl[r] for r in comm.ranks}, dec
                )
                for r in comm.ranks:
                    self.h[r] = back[r]

    # ------------------------------------------------------------------
    # full step and reporting
    # ------------------------------------------------------------------
    def collision_phase(self) -> None:
        """Advance the collisional phase via the installed scheme."""
        self.scheme.step(self)

    def step(self) -> None:
        """One full time step: str -> nl -> coll."""
        with self.world.span(
            f"{self.label}.str", "phase", ranks=self.ranks, category="str_compute"
        ):
            self.streaming_phase()
        if self.inp.nonlinear:
            with self.world.span(
                f"{self.label}.nl", "phase", ranks=self.ranks, category="nl_compute"
            ):
                self.nonlinear_phase()
        with self.world.span(
            f"{self.label}.coll", "phase", ranks=self.ranks, category="coll_compute"
        ):
            self.collision_phase()
        self.time += self.inp.delta_t
        self.step_count += 1

    def diagnostics(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flux spectrum Q(n) and field amplitude |phi|^2(n), global.

        One small AllReduce over the whole simulation communicator
        (CGYRO's per-report diagnostics cadence).
        """
        d, dec = self.dims, self.decomp
        fields = self._solve_fields(
            self.h, comm_category="diag", compute_category="diag"
        )
        partials: Dict[int, np.ndarray] = {}
        for r in self.ranks:
            nt_sel = self.nt_idx(r)
            phi_r = fields[r].phi
            q_local = flux_spectrum(
                self.h[r],
                phi_r,
                self.fields,
                self.iv_idx(r),
                nt_sel,
                k_theta_rho=self.inp.k_theta_rho,
            )
            # phi is replicated across the P1 group: weight it down
            p2_local = (np.abs(phi_r) ** 2).sum(axis=0) / dec.n_proc_1
            padded = np.zeros((2, d.nt))
            padded[0, nt_sel.start : nt_sel.stop] = q_local
            padded[1, nt_sel.start : nt_sel.stop] = p2_local
            partials[r] = padded
        self.world.charge_compute(
            self.ranks, flops=self.costs.diag_flops, category="diag"
        )
        with self.world.phase("diag"):
            summed = self.comm_sim.allreduce(partials)
        result = summed[self.ranks[0]]
        return result[0], result[1]

    def run_report_interval(self) -> ReportRow:
        """Advance ``steps_per_report`` steps and report timings + physics."""
        before = snapshot(self.world, self.ranks)
        for _ in range(self.inp.steps_per_report):
            with self.world.span(
                f"{self.label}.step{self.step_count}",
                "step",
                ranks=self.ranks,
            ):
                self.step()
        with self.world.span(
            f"{self.label}.diag", "phase", ranks=self.ranks, category="diag"
        ):
            flux, phi2 = self.diagnostics()
        after = snapshot(self.world, self.ranks)
        diff = delta(after, before)
        wall = diff.pop("elapsed")
        return ReportRow(
            step=self.step_count,
            time=self.time,
            wall_s=wall,
            categories=diff,
            flux=flux,
            phi2=phi2,
        )

    def run(self, n_reports: int) -> List[ReportRow]:
        """Run ``n_reports`` reporting intervals."""
        if n_reports < 0:
            raise InputError(f"n_reports must be >= 0, got {n_reports}")
        return [self.run_report_interval() for _ in range(n_reports)]

    # ------------------------------------------------------------------
    # checkpoint / restart
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Write a rank-count-portable checkpoint of this simulation."""
        from repro.cgyro.restart import save_checkpoint

        save_checkpoint(
            path, self.gather_h(), self.inp, step=self.step_count, time=self.time
        )

    def load_checkpoint(self, path) -> None:
        """Resume from a checkpoint (validates physics compatibility)."""
        from repro.cgyro.restart import load_checkpoint

        h_global, step, time = load_checkpoint(path, self.inp)
        blocks = scatter_global(h_global, Layout.STR, self.decomp)
        for lr in range(self.decomp.n_proc):
            self.h[self.ranks[lr]] = blocks[lr]
        self.step_count = step
        self.time = time

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def gather_h(self) -> np.ndarray:
        """Assemble the global ``(nc, nv, nt)`` state (test/diagnostic)."""
        blocks = [self.h[self.ranks[lr]] for lr in range(self.decomp.n_proc)]
        return gather_global(blocks, Layout.STR, self.decomp)

    def memory_report(self) -> str:
        """Memory breakdown of this simulation's first rank."""
        return self.world.ledgers[self.ranks[0]].report()
