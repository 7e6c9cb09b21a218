"""Physics diagnostics: flux spectrum and field amplitudes.

The turbulent flux proxy per toroidal mode,

    Q(n) = n k_theta_rho * sum_{ic, iv} w(iv) J(iv, n) Im[ phi*(ic,n) h(ic,iv,n) ],

is the quantity a fusion study actually extracts from a run (the paper's
"fusion studies composed of ensembles of simulations" vary gradients
and read off fluxes).  The distributed solver accumulates it with one
small AllReduce per report — CGYRO's diagnostics/io cadence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InputError
from repro.cgyro.fields import FieldSolver, velocity_moments


def flux_spectrum(
    h: np.ndarray,
    phi: np.ndarray,
    fields: FieldSolver,
    iv_idx: Sequence[int],
    nt_idx: Sequence[int],
    *,
    k_theta_rho: float,
) -> np.ndarray:
    """Partial flux spectrum of an (iv, nt) block.

    ``h`` has shape ``(nc, len(iv_idx), len(nt_idx))``, ``phi``
    ``(nc, len(nt_idx))``.  Returns ``Q`` of shape ``(len(nt_idx),)``.
    Summing the results over a partition of velocity space yields the
    full spectrum — the property the distributed reduction relies on.
    """
    iv, nt = np.asarray(iv_idx, dtype=np.intp), np.asarray(nt_idx, dtype=np.intp)
    (weighted,) = velocity_moments(h, fields.flux_weights[:, nt[:, None], iv])
    if phi.shape != weighted.shape:
        raise InputError(f"phi shape {phi.shape} inconsistent with h {h.shape}")
    q = (np.conj(phi) * weighted).sum(axis=0).imag
    return k_theta_rho * nt * q
