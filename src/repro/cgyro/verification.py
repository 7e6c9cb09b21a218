"""Numerical verification utilities.

Order-of-accuracy checks for the time integrators — the standard
"verify before you validate" tooling of a simulation code:

- the streaming phase uses RK4 and must converge at 4th order in dt;
- the full operator-split step (RK4 streaming + backward-Euler-style
  implicit collisions via the precomputed propagator) is 1st order in
  the splitting;

both measured by Richardson-style self-convergence against a
fine-step reference.  The observed order is returned so tests can
assert it (see ``tests/test_verification.py``), and studies can use
the same helpers to pick dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.cgyro.params import CgyroInput
from repro.cgyro.reference import SerialReference, initial_condition


@dataclass(frozen=True)
class ConvergenceResult:
    """Self-convergence study outcome."""

    dts: List[float]
    errors: List[float]
    observed_order: float

    def render(self) -> str:
        lines = [f"{'dt':>12s} {'error':>14s}"]
        for dt, err in zip(self.dts, self.errors):
            lines.append(f"{dt:>12.3e} {err:>14.6e}")
        lines.append(f"observed order: {self.observed_order:.2f}")
        return "\n".join(lines)


#: final time and step sizes of every self-convergence study: each dt
#: divides ``_T_FINAL``, and so does the fine reference's ``_DTS[-1] / 4``
_T_FINAL = 0.08
_DTS = (0.02, 0.01, 0.005)


def _advance(inp: CgyroInput, *, collisions: bool) -> np.ndarray:
    ref = SerialReference(inp)
    h = initial_condition(inp)
    for _ in range(round(_T_FINAL / inp.delta_t)):
        h = ref.streaming_step(h)
        if collisions:
            h = ref.collision_step(h)
    return h


def _observed_order(dts: Sequence[float], errors: Sequence[float]) -> float:
    logs = np.polyfit(np.log(np.asarray(dts)), np.log(np.asarray(errors)), 1)
    return float(logs[0])


def _self_convergence(inp: CgyroInput, *, collisions: bool) -> ConvergenceResult:
    reference = _advance(inp.with_updates(delta_t=_DTS[-1] / 4.0), collisions=collisions)
    ref_norm = np.linalg.norm(reference)
    errors = []
    for dt in _DTS:
        h = _advance(inp.with_updates(delta_t=dt), collisions=collisions)
        errors.append(float(np.linalg.norm(h - reference) / ref_norm))
    return ConvergenceResult(
        dts=list(_DTS), errors=errors, observed_order=_observed_order(_DTS, errors)
    )


def streaming_convergence(inp: CgyroInput) -> ConvergenceResult:
    """Temporal self-convergence of the streaming phase alone.

    Collisions are excluded, so the exact solution of the semi-discrete
    system is smooth in dt and the RK4 order (4) should be observed.
    """
    return _self_convergence(inp, collisions=False)


def split_step_convergence(inp: CgyroInput) -> ConvergenceResult:
    """Temporal self-convergence of the full split step.

    The Lie (first-order) splitting between the explicit streaming
    advance and the implicit collision propagator limits the full step
    to order ~1 — the documented accuracy trade the implicit-propagator
    design makes.
    """
    return _self_convergence(inp, collisions=True)
