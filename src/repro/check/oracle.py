"""The differential physics oracle: shared cmat changes no physics.

The paper's correctness bar (Belli et al.'s benchmark line): per-node
result equivalence.  :func:`differential_oracle` runs the same member
inputs two ways on the same modeled machine —

- as one XGYRO ensemble with the shared distributed cmat, and
- as independent CGYRO baselines
  (:class:`~repro.xgyro.baseline.SequentialCgyroBaseline`) —

and compares each member's full distribution-function state plus its
diagnostics (flux spectrum, field amplitude) every reporting interval.

Two baseline modes with different equivalence classes:

- ``"member"`` (default): each baseline runs at the *member's* rank
  count, so its decomposition — and therefore every reduction order —
  is identical to the ensemble member's.  The math is order-identical
  and the default tolerance is **exact** (``rtol = atol = 0``).
- ``"full"``: each baseline gets the whole machine, the paper's actual
  sequential alternative.  The k-times-larger comm_1 groups change
  reduction order, so equivalence is tolerance-bounded
  (``rtol = 1e-10`` by default — observed deltas sit at the 1e-16
  level, so the bound has six orders of headroom while still catching
  any real divergence).

:func:`resilient_differential_oracle` drives the same comparison
through :class:`~repro.resilience.runner.ResilientXgyroRunner`: after
faults, rollback, and shrink-and-recover, every *surviving* member
must still match an undisturbed independent run of its input — the
recovery machinery may cost time but must not touch physics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import records
from repro.errors import InputError
from repro.cgyro.params import CgyroInput
from repro.cgyro.solver import CgyroSimulation
from repro.check.checker import CollectiveChecker
from repro.machine.model import MachineModel
from repro.vmpi.world import VirtualWorld
from repro.xgyro.baseline import SequentialCgyroBaseline
from repro.xgyro.driver import XgyroEnsemble

#: Default tolerances per baseline mode: (rtol, atol).
MODE_TOLERANCES: Dict[str, Tuple[float, float]] = {
    "member": (0.0, 0.0),
    "full": (1e-10, 1e-18),
    "resilient": (0.0, 0.0),
}


@dataclass(frozen=True)
class FieldDelta(records.Record):
    """Max deviation of one compared field for one member.

    ``max_rel`` is scale-relative: ``max_abs`` over the baseline
    field's own max magnitude (``scale``, kept to 6 significant
    digits), so near-zero elements do not manufacture spurious
    relative error.
    """

    field: str
    max_abs: float
    max_rel: float
    scale: float
    ok: bool


@dataclass(frozen=True)
class MemberCheck(records.Record):
    """All field comparisons for one member at one reporting interval."""

    member: int
    name: str
    interval: int
    fields: Tuple[FieldDelta, ...]

    record_derived = ("ok",)

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.fields)


@dataclass(frozen=True)
class EquivalenceReport(records.Record):
    """Outcome of one differential-oracle run.

    ``checks`` holds one :class:`MemberCheck` per (interval, member),
    interval-major.  JSON rendering (:meth:`to_json`) is byte-stable:
    sorted keys, fixed indentation, trailing newline — committed
    golden files diff cleanly.
    """

    mode: str
    k: int
    n_reports: int
    machine: str
    ensemble_ranks: int
    baseline_ranks: int
    rtol: float
    atol: float
    checks: Tuple[MemberCheck, ...]
    overlap: str = "off"

    record_tag = "equivalence-report-v1"
    record_derived = ("ok", "max_abs", "max_rel")

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_abs(self) -> float:
        """Largest absolute deviation over every field and member."""
        return max((f.max_abs for c in self.checks for f in c.fields), default=0.0)

    @property
    def max_rel(self) -> float:
        """Largest scale-relative deviation over every field and member."""
        return max((f.max_rel for c in self.checks for f in c.fields), default=0.0)

    def to_json(self) -> str:
        """Byte-stable JSON rendering (golden-file format)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Human-readable summary table."""
        verdict = "EQUIVALENT" if self.ok else "DIVERGED"
        lines = [
            f"differential oracle [{self.mode}]: shared-cmat ensemble "
            f"(k={self.k}, {self.ensemble_ranks} ranks, "
            f"overlap={self.overlap}) vs independent baselines "
            f"({self.baseline_ranks} ranks each) on {self.machine}",
            f"tolerance: rtol={self.rtol:g}, atol={self.atol:g}"
            + ("  (exact)" if self.rtol == 0.0 and self.atol == 0.0 else ""),
            f"{'interval':>8s} {'member':<24s} {'field':<8s} "
            f"{'max_abs':>12s} {'max_rel':>12s} {'ok':>4s}",
        ]
        for c in self.checks:
            for f in c.fields:
                lines.append(
                    f"{c.interval:>8d} {c.name:<24s} {f.field:<8s} "
                    f"{f.max_abs:>12.3e} {f.max_rel:>12.3e} "
                    f"{'yes' if f.ok else 'NO':>4s}"
                )
        lines.append(
            f"verdict: {verdict} "
            f"(max_abs={self.max_abs:.3e}, max_rel={self.max_rel:.3e})"
        )
        return "\n".join(lines)


def _field_delta(
    name: str, ours: np.ndarray, ref: np.ndarray, rtol: float, atol: float
) -> FieldDelta:
    ours = np.asarray(ours)
    ref = np.asarray(ref)
    if ours.shape != ref.shape:
        return FieldDelta(name, math.inf, math.inf, 0.0, False)
    diff = np.abs(ours - ref)
    max_abs = float(diff.max()) if diff.size else 0.0
    scale = float(np.abs(ref).max()) if ref.size else 0.0
    if scale > 0.0:
        max_rel = max_abs / scale
    else:
        max_rel = 0.0 if max_abs == 0.0 else math.inf
    ok = max_abs <= atol + rtol * scale
    # scale is context, not verdict: keep 6 significant digits so golden
    # files stay byte-stable across BLAS implementations whose last-ulp
    # noise would otherwise leak into the JSON
    return FieldDelta(name, max_abs, max_rel, float(f"{scale:.6e}"), ok)


def _member_check(
    member: int,
    name: str,
    interval: int,
    state: np.ndarray,
    ref_state: np.ndarray,
    flux: np.ndarray,
    ref_flux: np.ndarray,
    phi2: np.ndarray,
    ref_phi2: np.ndarray,
    rtol: float,
    atol: float,
) -> MemberCheck:
    return MemberCheck(
        member=member,
        name=name,
        interval=interval,
        fields=(
            _field_delta("state", state, ref_state, rtol, atol),
            _field_delta("flux", flux, ref_flux, rtol, atol),
            _field_delta("phi2", phi2, ref_phi2, rtol, atol),
        ),
    )


def _resolve_tolerances(
    mode: str, rtol: Optional[float], atol: Optional[float]
) -> Tuple[float, float]:
    if mode not in MODE_TOLERANCES:
        raise InputError(
            f"unknown oracle baseline mode {mode!r} "
            f"(choose from {sorted(MODE_TOLERANCES)})"
        )
    d_rtol, d_atol = MODE_TOLERANCES[mode]
    return (
        d_rtol if rtol is None else float(rtol),
        d_atol if atol is None else float(atol),
    )


def differential_oracle(
    inputs: Sequence[CgyroInput],
    machine: MachineModel,
    *,
    n_reports: int = 1,
    baseline: str = "member",
    rtol: Optional[float] = None,
    atol: Optional[float] = None,
    n_ranks: Optional[int] = None,
    enforce_memory: bool = False,
    nc_counts: Optional[Sequence[int]] = None,
    overlap: str = "off",
) -> EquivalenceReport:
    """Run ensemble and baselines on identical inputs; compare state.

    Every reporting interval, each ensemble member's gathered
    distribution function and its report diagnostics (flux, |phi|^2)
    are compared against the corresponding interval of an independent
    baseline trajectory.  The ensemble world also runs under a
    :class:`~repro.check.checker.CollectiveChecker`, so the run is
    simultaneously protocol-checked and physics-checked.

    ``overlap`` (one of :data:`~repro.cgyro.solver.OVERLAP_MODES`)
    applies to the *ensemble side only* — the baselines always run the
    blocking schedule — so the oracle directly certifies that the
    pipelined schedules are bit-identical to blocking arithmetic.
    """
    if n_reports < 1:
        raise InputError(f"n_reports must be >= 1, got {n_reports}")
    rtol, atol = _resolve_tolerances(baseline, rtol, atol)
    world = VirtualWorld(machine, n_ranks=n_ranks, enforce_memory=enforce_memory)
    checker = CollectiveChecker()
    world.install_checker(checker)
    ensemble = XgyroEnsemble(world, inputs, nc_counts=nc_counts, overlap=overlap)
    member_ranks = len(ensemble.members[0].ranks)
    baseline_ranks = member_ranks if baseline == "member" else world.n_ranks
    base = SequentialCgyroBaseline(
        machine, inputs, n_ranks=baseline_ranks, enforce_memory=enforce_memory
    )
    checks: List[MemberCheck] = []
    for interval in range(1, n_reports + 1):
        report = ensemble.run_report_interval()
        ref_rows = base.run_interval()
        states = ensemble.member_states()
        for m, (sim, row, ref_row) in enumerate(
            zip(base.simulations(), report.member_rows, ref_rows)
        ):
            checks.append(
                _member_check(
                    m,
                    ensemble.members[m].label,
                    interval,
                    states[m],
                    sim.gather_h(),
                    row.flux,
                    ref_row.flux,
                    row.phi2,
                    ref_row.phi2,
                    rtol,
                    atol,
                )
            )
    checker.assert_quiescent()
    return EquivalenceReport(
        mode=baseline,
        k=ensemble.n_members,
        n_reports=n_reports,
        machine=machine.name,
        ensemble_ranks=world.n_ranks,
        baseline_ranks=baseline_ranks,
        rtol=rtol,
        atol=atol,
        checks=tuple(checks),
        overlap=overlap,
    )


def resilient_differential_oracle(
    inputs: Sequence[CgyroInput],
    machine: MachineModel,
    plan,
    *,
    n_steps: int,
    overlap: str = "off",
) -> EquivalenceReport:
    """Shrink-and-recover run vs undisturbed baselines of the survivors.

    Drives :class:`~repro.resilience.runner.ResilientXgyroRunner` for
    ``n_steps`` ensemble steps under ``plan``, checkpointing every
    step (with the checker installed, so the recovery rebuild is also
    protocol-checked), then compares every surviving member's state
    and diagnostics against a fresh, fault-free run of the same input
    at the member's rank count.  Rollback + replay re-executes the
    identical arithmetic, so the tolerance is exact.
    """
    from repro.resilience.runner import ResilientXgyroRunner

    rtol, atol = MODE_TOLERANCES["resilient"]
    world = VirtualWorld(machine)
    checker = CollectiveChecker()
    world.install_checker(checker)
    runner = ResilientXgyroRunner(world, inputs, plan=plan, overlap=overlap)
    runner.run_steps(n_steps)
    checks: List[MemberCheck] = []
    for m, member in enumerate(runner.ensemble.members):
        ref_world = VirtualWorld(machine, n_ranks=len(member.ranks))
        ref_sim = CgyroSimulation(ref_world, range(ref_world.n_ranks), member.inp)
        for _ in range(n_steps):
            ref_sim.step()
        flux, phi2 = member.diagnostics()
        ref_flux, ref_phi2 = ref_sim.diagnostics()
        checks.append(
            _member_check(
                m,
                member.label,
                1,
                member.gather_h(),
                ref_sim.gather_h(),
                flux,
                ref_flux,
                phi2,
                ref_phi2,
                rtol,
                atol,
            )
        )
    checker.assert_quiescent()
    return EquivalenceReport(
        mode="resilient",
        k=runner.ensemble.n_members,
        n_reports=1,
        machine=machine.name,
        ensemble_ranks=world.n_ranks,
        baseline_ranks=len(runner.ensemble.members[0].ranks),
        rtol=rtol,
        atol=atol,
        checks=tuple(checks),
        overlap=overlap,
    )
