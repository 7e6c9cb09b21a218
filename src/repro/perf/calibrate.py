"""Calibration of the Frontier-like machine constants.

The virtual machine's three effective constants —

- ``per_call_overhead_s`` (host-side collective staging),
- the inter-node latency, and
- ``flops_per_rank`` (effective compute rate)

— are not vendor specs: they absorb the dimensional scale-down of the
nl03c benchmark (DESIGN.md section 5).  This module fits them so the
*simulated* Figure-2 numbers land on the paper's reported ones:

    CGYRO sum:  total 375 s, str comm 145 s
    XGYRO:      total 250 s, str comm  33 s

Three parameters against four targets (nonlinear least squares in log
space via the analytic model), so the fit is over-determined; the
residual is reported.  ``frontier_like``'s defaults are the constants
this fit produced — re-run :func:`calibrate_machine` to regenerate
them after model changes (a test asserts the preset still reproduces
the targets to tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cgyro.params import CgyroInput
from repro.cgyro.presets import nl03c_scaled
from repro.machine.model import MiB, MachineModel
from repro.machine.presets import frontier_like
from repro.perf.analytic import predict_cgyro_interval, predict_xgyro_interval

#: Published Figure-2 numbers (seconds per reporting step).
PAPER_TARGETS: Dict[str, float] = {
    "cgyro_sum_total": 375.0,
    "cgyro_sum_str": 145.0,
    "xgyro_total": 250.0,
    "xgyro_str": 33.0,
}


@dataclass
class CalibrationResult:
    """Fitted machine plus achieved-vs-target diagnostics."""

    machine: MachineModel
    achieved: Dict[str, float]
    targets: Dict[str, float]
    residual: float

    def summary(self) -> str:
        lines = [f"calibrated machine: {self.machine.describe()}"]
        for key, want in self.targets.items():
            got = self.achieved[key]
            lines.append(f"  {key:<18s} target {want:8.1f}  achieved {got:8.1f}")
        lines.append(f"  relative residual {self.residual:.3f}")
        return "\n".join(lines)


def _predict(machine: MachineModel, inp: CgyroInput, k: int, total_ranks: int):
    cgyro = predict_cgyro_interval(inp, machine, total_ranks)
    xgyro = predict_xgyro_interval(k, inp, machine, total_ranks)
    return {
        "cgyro_sum_total": k * cgyro.total,
        "cgyro_sum_str": k * cgyro.str_comm,
        "xgyro_total": xgyro.total,
        "xgyro_str": xgyro.str_comm,
    }


def calibrate_machine(
    inp: Optional[CgyroInput] = None,
    *,
    n_members: int = 8,
    n_nodes: int = 32,
    mem_per_rank: float = 4.0 * MiB,
    targets: Optional[Dict[str, float]] = None,
    x0: Sequence[float] = (5e-3, 2e-4, 2e7),
) -> CalibrationResult:
    """Fit (overhead, inter latency, flop rate) to the Figure-2 targets."""
    inp = inp or nl03c_scaled()
    targets = dict(targets or PAPER_TARGETS)
    total_ranks = n_nodes * 8
    keys = sorted(targets)

    def residuals(logx: np.ndarray) -> np.ndarray:
        o, a, rate = np.exp(logx)
        machine = frontier_like(n_nodes, mem_per_rank_bytes=mem_per_rank, flops_per_rank=rate,
                                inter_latency_s=a, per_call_overhead_s=o)
        got = _predict(machine, inp, n_members, total_ranks)
        return np.array([np.log(got[k] / targets[k]) for k in keys])

    from scipy.optimize import least_squares  # only this cold fit needs it
    fit = least_squares(residuals, np.log(np.asarray(x0, dtype=float)))
    o, a, rate = np.exp(fit.x)
    machine = frontier_like(n_nodes, mem_per_rank_bytes=mem_per_rank, flops_per_rank=rate,
                            inter_latency_s=a, per_call_overhead_s=o)
    achieved = _predict(machine, inp, n_members, total_ranks)
    residual = float(
        np.sqrt(np.mean([(achieved[k] / targets[k] - 1.0) ** 2 for k in keys]))
    )
    return CalibrationResult(
        machine=machine, achieved=achieved, targets=targets, residual=residual
    )
