"""The paper's baseline: the same studies run sequentially with CGYRO.

"...either sequentially with CGYRO or as an ensemble with XGYRO" —
each simulation gets the *whole* machine (its str AllReduce groups are
k times larger than an XGYRO member's), runs to completion, and the
next one starts; wall times add.

Each baseline run gets a fresh virtual world on the same machine
(separate HPC jobs), so clocks, ledgers and traces are per-run; the
summed report is directly comparable to the XGYRO ensemble report.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import EnsembleValidationError, InputError
from repro.cgyro.params import CgyroInput
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.timing import ReportRow, sum_rows
from repro.machine.model import MachineModel
from repro.vmpi.world import VirtualWorld


class SequentialCgyroBaseline:
    """Run member inputs one after another, each on the full machine."""

    def __init__(
        self,
        machine: MachineModel,
        inputs: Sequence[CgyroInput],
        *,
        n_ranks: Optional[int] = None,
        enforce_memory: bool = False,
    ) -> None:
        if len(inputs) == 0:
            raise EnsembleValidationError("baseline needs at least one input")
        self.machine = machine
        self.inputs = tuple(inputs)
        self.n_ranks = n_ranks
        self.enforce_memory = enforce_memory
        self._sims: Optional[List[CgyroSimulation]] = None

    def simulations(self) -> List[CgyroSimulation]:
        """Persistent per-input simulations (one fresh world each).

        Created on first call and advanced by :meth:`run_interval`, so
        multi-interval trajectories continue instead of restarting —
        what the differential oracle (:mod:`repro.check.oracle`) needs
        to compare interval *n* against interval *n* of the ensemble.
        Do not mix with :meth:`run_report_interval`, which rebuilds
        fresh worlds (single-interval semantics) on every call.
        """
        if self._sims is None:
            self._sims = [self._simulation(inp) for inp in self.inputs]
        return self._sims

    def _simulation(self, inp: CgyroInput) -> CgyroSimulation:
        """``inp`` on a fresh untraced world of the whole machine."""
        world = VirtualWorld(
            self.machine,
            n_ranks=self.n_ranks,
            enforce_memory=self.enforce_memory,
            trace=False,
        )
        return CgyroSimulation(world, range(world.n_ranks), inp)

    def run_interval(self) -> List[ReportRow]:
        """Advance the persistent simulations one reporting interval."""
        cadences = {inp.steps_per_report for inp in self.inputs}
        if len(cadences) != 1:
            raise InputError(
                f"inputs disagree on steps_per_report: {sorted(cadences)}"
            )
        return [sim.run_report_interval() for sim in self.simulations()]

    def run_report_interval(self) -> List[ReportRow]:
        """Run one reporting interval of every input, sequentially.

        Returns one row per input; aggregate with :meth:`summed` or
        :func:`repro.cgyro.timing.sum_rows`.
        """
        cadences = {inp.steps_per_report for inp in self.inputs}
        if len(cadences) != 1:
            raise InputError(
                f"inputs disagree on steps_per_report: {sorted(cadences)}"
            )
        return [
            self._simulation(inp).run_report_interval() for inp in self.inputs
        ]
