"""The one sheet of per-kernel sizes, counts and flop charges.

The virtual world charges compute as ``flops / machine.flops_per_rank``
and every per-rank buffer against a memory ledger.  This module is the
single place those numbers are written down: the solver charges from a
:class:`KernelCosts` built once at construction, the closed-form
predictor (:mod:`repro.perf.analytic`) evaluates the same sheet in
algebra, and the memory arithmetic (:mod:`repro.perf.memory`) sums the
same buffer table the ledgers are fed — so the executed run and its
closed-form twin cannot drift apart.

Absolute realism is not required (the machine's effective rate is a
calibrated quantity), but *relative* costs between kernels and their
scaling with local block sizes must be right, because they determine
how compute time redistributes when XGYRO shrinks the per-member rank
count.  Every per-element constant is an integer-valued float, so the
products below are exact whatever order they are taken in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cgyro.nonlinear import padded_length
from repro.cgyro.params import CgyroInput
from repro.grid.decomp import Decomposition
from repro.grid.layouts import Layout, block_nbytes

#: Streaming RHS: theta stencils, drift/drive multiplies, FLR factors —
#: roughly 20 complex ops per element per stage.
RHS_FLOPS_PER_ELEMENT = 120.0

#: Velocity-space moment accumulation: two moments (field + upwind),
#: one complex multiply-add each.
MOMENT_FLOPS_PER_ELEMENT = 16.0

#: Field assembly (divide by dielectric, small).
FIELD_SOLVE_FLOPS_PER_ELEMENT = 8.0

#: RK4 linear combination work per element per step.
RK_COMBINE_FLOPS_PER_ELEMENT = 24.0

#: Diagnostics (flux spectrum accumulation).
DIAG_FLOPS_PER_ELEMENT = 12.0


def fft_flops(batch: int, length: int) -> float:
    """Split-radix-style estimate: ``5 N log2 N`` per transform."""
    if length <= 1:
        return 0.0
    return 5.0 * batch * length * math.log2(length)


def bracket_flops(n_conf: int, n_iv: int, nt: int, padded: int) -> float:
    """Nonlinear toroidal bracket: 8 padded FFTs + pointwise products."""
    batch = n_conf * n_iv
    transforms = 8.0 * fft_flops(batch, padded)
    pointwise = 6.0 * 2.0 * batch * padded
    return transforms + pointwise


def n_moments(inp: CgyroInput) -> int:
    """Moments accumulated per field solve: field, upwind (+ current
    for electromagnetic runs)."""
    return 3 if inp.beta_e > 0 else 2


def state_buffers(inp: CgyroInput, decomp: Decomposition) -> Dict[str, int]:
    """Per-rank non-cmat buffers (name -> bytes) of one simulation.

    The buffer set mirrors CGYRO's: state, four RK stages, stage
    scratch, previous-step copy (error control), field arrays, moment
    accumulators, streaming factor tables, upwind scratch, the
    coll-layout workspace, and (nonlinear only) two NL-layout
    workspaces.
    """
    nc = decomp.dims.nc
    str_bytes = block_nbytes(Layout.STR, decomp)
    # phi + psi_u (+ apar for electromagnetic runs)
    field_bytes = n_moments(inp) * nc * decomp.nt_loc * 16
    sizes = {
        "h": str_bytes,
        "rk_stages": 4 * str_bytes,
        "stage_state": str_bytes,
        "h_prev": str_bytes,
        "fields": field_bytes,
        "moment_work": field_bytes,
        "stream_tables": nc * decomp.nv_loc * decomp.nt_loc * 8,
        "upwind_work": str_bytes,
        "coll_work": block_nbytes(Layout.COLL, decomp),
    }
    if inp.nonlinear:
        sizes["nl_work"] = 2 * block_nbytes(Layout.NL, decomp)
    return sizes


@dataclass(frozen=True)
class KernelCosts:
    """What one rank of a simulation moves and computes per kernel call.

    ``chunks`` is the split of the local velocity space the field solve
    pipelines over (one AllReduce round per chunk), and
    ``chunk_moment_flops`` the moment accumulation charged per chunk.
    """

    n_moments: int
    chunks: Tuple[range, ...]
    chunk_moment_flops: Tuple[float, ...]
    #: one ``(nc, nt_loc)`` complex moment / field array
    moment_bytes: int
    #: one STR-layout block
    block_bytes: int
    field_solve_flops: float
    rhs_flops: float
    rk_combine_flops: float
    diag_flops: float
    #: toroidal bracket of the nl phase (0 for a linear input)
    nl_flops: float

    @property
    def moment_flops(self) -> float:
        """Moment accumulation of one whole field solve."""
        return sum(self.chunk_moment_flops)

    @classmethod
    def of(cls, inp: CgyroInput, decomp: Decomposition) -> "KernelCosts":
        """The sheet for ``inp`` distributed by ``decomp``."""
        d = decomp.dims
        nv_loc, nt_loc = decomp.nv_loc, decomp.nt_loc
        chunk = min(nv_loc, d.n_xi)
        chunks = tuple(
            range(lo, min(lo + chunk, nv_loc)) for lo in range(0, nv_loc, chunk)
        )
        elements = d.nc * nv_loc * nt_loc
        return cls(
            n_moments=n_moments(inp),
            chunks=chunks,
            chunk_moment_flops=tuple(
                MOMENT_FLOPS_PER_ELEMENT * d.nc * len(c) * nt_loc for c in chunks
            ),
            moment_bytes=d.nc * nt_loc * 16,
            block_bytes=elements * 16,
            field_solve_flops=FIELD_SOLVE_FLOPS_PER_ELEMENT * d.nc * nt_loc,
            rhs_flops=RHS_FLOPS_PER_ELEMENT * elements,
            rk_combine_flops=RK_COMBINE_FLOPS_PER_ELEMENT * elements * 4,
            diag_flops=DIAG_FLOPS_PER_ELEMENT * elements,
            nl_flops=(
                bracket_flops(
                    d.nc // decomp.n_proc_2, nv_loc, d.nt, padded_length(d.nt)
                )
                if inp.nonlinear
                else 0.0
            ),
        )
