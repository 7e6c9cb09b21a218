"""The distributed CGYRO-like solver.

:class:`CgyroSimulation` runs one simulation on an ordered set of
world ranks in lockstep SPMD.  The STR-layout state is **one**
``(nc, nv, nt)`` array, ``self.h_global``; a rank's block is the view
``h_global[:, nv_slice(i1), nt_slice(i2)]`` (``self.h``, keyed by world
rank), and phases advance it through the communicator structure of
Figure 1:

- **str**: RK4 with a field solve per stage, each stage evaluated once
  on the whole array (every term is elementwise in (iv, n), so this is
  bit-equal to evaluating it block by block).  Velocity moments are
  accumulated in *chunks* of the local velocity space, with one
  AllReduce over the comm_1 group per moment per chunk (pipelined
  partial-transform aggregation — CGYRO's ``field``/``upwind``
  reductions).  In SPMD source that is one statement in a moment loop,
  per chunk; the lockstep driver issues a whole blocking solve as one
  :func:`~repro.vmpi.communicator.allreduce_rounds` over the rank-stacked partial
  moments of every chunk, which the world books chunk by chunk as the
  chunk's moment compute and then ``n_mom x P2`` AllReduces (the host
  forms the moments of every chunk of an i1 column in one call,
  before).  The per-rank call count therefore scales
  with ``nv_loc``, and each call's cost with the comm_1 group size —
  the interplay the paper's Figure 2 turns on (DESIGN.md section 5).
- **nl** (optional): str->nl AllToAll on comm_2, toroidal bracket,
  back.
- **coll**: delegated to the installed
  :class:`~repro.cgyro.collision_scheme.CollisionScheme` — the seam
  XGYRO replaces.

The nl and coll phases read and write the per-rank views through
by-reference ``alltoall``s.  One invariant keeps the single array
honest (DESIGN.md section 3): no phase reads from it what a rank only
learns through a collective — the summed moments, and every field
assembled from them, are written from AllReduce results only (a
block's result, or a request's payload when overlapped).

All per-rank buffers are registered in the machine's memory ledgers,
so memory questions ("does this fit on N nodes?") are measured, not
estimated.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
from repro.collision.operator import CollisionOperator
from repro.grid.config_space import ConfigGrid
from repro.grid.decomp import Decomposition
from repro.grid.transpose import transpose_nl_to_str, transpose_str_to_nl
from repro.grid.velocity import VelocityGrid
from repro.vmpi.communicator import Communicator, allreduce_rounds
from repro.vmpi.datatypes import RankStacked
from repro.vmpi.world import VirtualWorld

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
        # index tables, by local rank and by grid column: built once,
        # nothing on the step path derives them again
        dec, d = self.decomp, self.dims
        self._coords = [dec.coords_of(lr) for lr in range(dec.n_proc)]
        self._nv_ranges = [
            range(*dec.nv_slice(i1).indices(d.nv)) for i1 in range(dec.n_proc_1)
        ]
        self._nt_ranges = [
            range(*dec.nt_slice(i2).indices(d.nt)) for i2 in range(dec.n_proc_2)
        ]
        self._all_iv = np.arange(d.nv, dtype=np.intp)
        self._all_nt = np.arange(d.nt, dtype=np.intp)
        # the field solve's moment calls, (i1, chunks, global iv slice):
        # one per i1 column over its equal chunks, one more for a
        # shorter tail chunk
        chunks = self.costs.chunks
        n_equal = sum(len(c) == len(chunks[0]) for c in chunks)
        self._moment_calls = [
            (i1, slice(a, b), slice(iv.start + chunks[a].start, iv.start + chunks[b - 1].stop))
            for i1, iv in enumerate(self._nv_ranges)
            for a, b in ((0, n_equal), (n_equal, len(chunks)))
            if a < b
        ]
        # each comm_1 group with the toroidal columns its ranks own
        self._comm1_columns = [
            (comm, dec.nt_slice(i2)) for i2, comm in self.comm1.items()
        ]
        self._comm1_groups, self._nt_windows = zip(*self._comm1_columns)
        self._allocate_buffers()
        self.scheme: CollisionScheme = collision_scheme or PrivateCollisionScheme()
        self.scheme.setup(self)
        # initial state: the deterministic global condition
        self._h_global = np.ascontiguousarray(
            initial_condition(inp), dtype=np.complex128
        )
        #: world rank -> that rank's block, a view of :attr:`h_global`.
        #: Write *into* a block (``sim.h[r][...] = x``); rebinding an
        #: entry would detach the rank from the array, so it raises.
        self.h: Mapping[int, np.ndarray] = MappingProxyType(
            {
                r: self._h_global[:, dec.nv_slice(i1), dec.nt_slice(i2)]
                for r, (i1, i2) in zip(self.ranks, self._coords)
            }
        )
        self.time = 0.0
        self.step_count = 0

    @property
    def h_global(self) -> np.ndarray:
        """The STR-layout state of the whole simulation, one C-ordered
        complex128 ``(nc, nv, nt)`` array for the simulation's lifetime
        (write into it; it cannot be replaced)."""
        return self._h_global

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
        state: np.ndarray,
        *,
        comm_category: str = "str_comm",
        compute_category: str = "str_compute",
    ) -> FieldState:
        """Chunked, AllReduced field solve on an ``(nc, nv, nt)`` state.

        Returns the fields on ``(nc, nt)``: columns ``nt_slice(i2)`` are
        what the ranks of comm_1 group ``i2`` hold (identically) after
        their reductions — ``acc`` is written from AllReduce results
        only.  The category overrides let once-per-interval callers
        (diagnostics) attribute their charges outside the per-step
        phase timers.
        """
        d, dec = self.dims, self.decomp
        kc = self.costs
        n_mom = kc.n_moments
        acc = np.zeros((n_mom, d.nc, d.nt), dtype=np.complex128)
        overlapped = self.overlap in ("str", "full")
        pending: List = []

        def drain() -> None:
            for req, columns in pending:
                acc[:, :, columns] += req.wait()[req.comm.ranks[0]]
            pending.clear()

        # partials[i1, c]: the moments ranks (i1, *) form over *their
        # own* chunk c, for all nt at once — every (c, ic, n) is its own
        # GEMM, so the wider batch changes no bit
        partials = np.empty((dec.n_proc_1, len(kc.chunks), n_mom, d.nc, d.nt), complex)
        for i1, chunks, iv in self._moment_calls:
            self.fields.partial_moments(
                state[:, iv, :], self._all_iv[iv], self._all_nt, out=partials[i1, chunks]
            )
        if overlapped:
            for partial, moment_flops in zip(partials.swapaxes(0, 1), kc.chunk_moment_flops):
                self.world.charge_compute(
                    self.ranks, flops=moment_flops, category=compute_category
                )
                # wait the previous chunk's reductions (their cost has
                # been accruing under this chunk's moment compute), then
                # post this chunk's — one aggregated iallreduce per
                # comm_1 group carrying all moments at once.  The sum is
                # bit-identical: elementwise over ranks either way.
                drain()
                with self.world.phase(comm_category):
                    pending.extend(
                        (
                            comm.iallreduce(
                                RankStacked(comm.ranks, partial[:, :, :, columns])
                            ),
                            columns,
                        )
                        for comm, columns in self._comm1_columns
                    )
            drain()
        else:
            # each moment is reduced separately, as in CGYRO: one
            # statement, n_mom rounds on every comm_1 group, per chunk,
            # after that chunk's moment compute — all chunks in one call
            for summed in allreduce_rounds(
                self._comm1_groups, partials, self._nt_windows, ranks=self.ranks,
                flops=kc.chunk_moment_flops, compute_category=compute_category,
                category=comm_category,
            ):
                acc += summed
        fields = self.fields.assemble(acc, self._all_nt)
        self.world.charge_compute(
            self.ranks,
            flops=kc.field_solve_flops,
            category=compute_category,
        )
        return fields

    def _streaming_rhs(self, state: np.ndarray) -> np.ndarray:
        """Field solve + RHS evaluation for one RK stage."""
        f = self._solve_fields(state)
        rhs = self.streaming.rhs(
            state, f.phi, f.psi_u, self._all_iv, self._all_nt, apar=f.apar
        )
        self.world.charge_compute(
            self.ranks, flops=self.costs.rhs_flops, category="str_compute"
        )
        return rhs

    def streaming_phase(self) -> None:
        """RK4 advance of the streaming phase (in place)."""
        dt = self.inp.delta_t
        h = self.h_global
        k1 = self._streaming_rhs(h)
        k2 = self._streaming_rhs(h + 0.5 * dt * k1)
        k3 = self._streaming_rhs(h + 0.5 * dt * k2)
        k4 = self._streaming_rhs(h + dt * k3)
        h += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
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
        dec = self.decomp
        phi = self._solve_fields(self.h_global).phi
        # move h and phi to the NL layout (nt complete), one i1 column
        # per comm_2 group; comm_2 rank j sits in toroidal group j,
        # whose columns of phi it holds
        with self.world.phase("nl_comm"):
            columns = []
            for comm in self.comm2.values():
                phi_str = {r: phi[:, dec.nt_slice(i2)] for i2, r in enumerate(comm.ranks)}
                h_col = transpose_str_to_nl(comm, self.h, dec)
                columns.append((h_col, transpose_str_to_nl(comm, phi_str, dec)))
        # the bracket is pointwise in ic, so one call per column is, bit
        # for bit, its ranks' calls on their row ranges
        k_r, inp = self.cgrid.flat_k_radial(), self.inp
        for h_col, phi_col in columns:
            h_col += inp.delta_t * toroidal_bracket(
                h_col, phi_col, k_r, k_theta_rho=inp.k_theta_rho, nl_coeff=inp.nl_coeff
            )
        self.world.charge_compute(
            self.ranks, flops=self.costs.nl_flops, category="nl_compute"
        )
        with self.world.phase("nl_comm"):
            for comm, (h_col, _) in zip(self.comm2.values(), columns):
                transpose_nl_to_str(comm, h_col, dec, self.h)

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
        phi = self._solve_fields(
            self.h_global, comm_category="diag", compute_category="diag"
        ).phi
        # one zero-padded (flux, |phi|^2) row pair per rank.  These stay
        # per rank and on a contiguous copy of the block: the sums over
        # nc fold in an order that depends on the column count, and the
        # one-row flux contraction is a GEMV, whose bits (unlike the
        # moments' GEMM) depend on the operand's row stride
        partials = np.zeros((len(self.ranks), 2, d.nt))
        for padded, r, (i1, i2) in zip(partials, self.ranks, self._coords):
            nt_sel = self._nt_ranges[i2]
            phi_r = phi[:, nt_sel.start : nt_sel.stop]
            padded[0, nt_sel.start : nt_sel.stop] = flux_spectrum(
                np.ascontiguousarray(self.h[r]),
                phi_r,
                self.fields,
                self._nv_ranges[i1],
                nt_sel,
                k_theta_rho=self.inp.k_theta_rho,
            )
            # phi is replicated across the P1 group: weight it down
            padded[1, nt_sel.start : nt_sel.stop] = (
                (np.abs(phi_r) ** 2).sum(axis=0) / dec.n_proc_1
            )
        self.world.charge_compute(
            self.ranks, flops=self.costs.diag_flops, category="diag"
        )
        with self.world.phase("diag"):
            summed = self.comm_sim.allreduce(RankStacked(self.ranks, partials))
        flux, phi2 = summed[self.ranks[0]]
        return flux, phi2

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

        self.h_global[...], self.step_count, self.time = load_checkpoint(
            path, self.inp
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def gather_h(self) -> np.ndarray:
        """A copy of the global ``(nc, nv, nt)`` state (test/diagnostic)."""
        return self.h_global.copy()

    def memory_report(self) -> str:
        """Memory breakdown of this simulation's first rank."""
        return self.world.ledgers[self.ranks[0]].report()
