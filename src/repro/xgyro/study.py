"""End-to-end study orchestration.

Wraps the whole workflow of a real ensemble study around the ensemble
driver: given a study directory (``input.xgyro`` + member directories)
and a machine, :class:`XgyroStudy` runs the ensemble for a number of
reporting intervals, keeps a per-member
:class:`~repro.cgyro.history.TimeHistory`, and writes the artefacts a
user would keep —

    <study>/<member>/out.cgyro.timing      per-member timing CSV
    <study>/<member>/history.npz           flux/amplitude time series
    <study>/<member>/checkpoint.npz        restartable state
    <study>/out.xgyro.summary              study-level text summary

The CLI's ``run-xgyro`` path stays thin; this is the programmatic
"campaign" API.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.errors import InputError
from repro.cgyro.history import TimeHistory
from repro.cgyro.io import write_timing_csv
from repro.machine.model import MachineModel
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import EnsembleReport, XgyroEnsemble
from repro.xgyro.input import parse_ensemble


class XgyroStudy:
    """Run an on-disk ensemble study and persist its outputs."""

    def __init__(
        self,
        study_dir: Union[str, Path],
        machine: MachineModel,
        *,
        enforce_memory: bool = True,
    ) -> None:
        self.study_dir = Path(study_dir)
        manifest = self.study_dir / "input.xgyro"
        if not manifest.exists():
            raise InputError(f"no input.xgyro in {self.study_dir}")
        self.inputs = parse_ensemble(manifest)
        self.member_dirs = self._member_dirs(manifest)
        self.machine = machine
        self.world = VirtualWorld(machine, enforce_memory=enforce_memory)
        self.ensemble = XgyroEnsemble(self.world, self.inputs)
        self.histories: List[TimeHistory] = [
            TimeHistory() for _ in self.inputs
        ]
        self.reports: List[EnsembleReport] = []

    @staticmethod
    def _member_dirs(manifest: Path) -> List[Path]:
        dirs: List[Path] = []
        for raw in manifest.read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if line.startswith("DIR="):
                dirs.append(manifest.parent / line.split("=", 1)[1].strip())
        return dirs

    # ------------------------------------------------------------------
    def run(self, n_reports: int) -> List[EnsembleReport]:
        """Advance ``n_reports`` intervals, accumulating histories."""
        if n_reports < 1:
            raise InputError("n_reports must be >= 1")
        for _ in range(n_reports):
            report = self.ensemble.run_report_interval()
            self.reports.append(report)
            for hist, row in zip(self.histories, report.member_rows):
                hist.append(row)
        return self.reports

    # ------------------------------------------------------------------
    def write_outputs(self, *, checkpoints: bool = True) -> None:
        """Persist per-member artefacts and the study summary."""
        if not self.reports:
            raise InputError("run() the study before writing outputs")
        for member, hist, directory in zip(
            self.ensemble.members, self.histories, self.member_dirs
        ):
            directory.mkdir(parents=True, exist_ok=True)
            rows = [hist._rows[i] for i in range(len(hist))]
            write_timing_csv(rows, directory / "out.cgyro.timing")
            hist.save(directory / "history.npz")
            if checkpoints:
                member.save_checkpoint(directory / "checkpoint.npz")
        (self.study_dir / "out.xgyro.summary").write_text(self.summary() + "\n")

    def summary(self) -> str:
        """Study-level text summary (also written to disk)."""
        if not self.reports:
            raise InputError("run() the study before summarising")
        last = self.reports[-1]
        lines = [
            f"xgyro study: {len(self.inputs)} members on {self.machine.name}",
            f"reports completed: {len(self.reports)} "
            f"(step {last.ensemble.step}, t = {last.ensemble.time:.4f})",
            f"last interval: wall {last.ensemble.wall_s:.3f} s, "
            f"str comm {last.ensemble.str_comm_s:.3f} s, "
            f"comm total {last.ensemble.comm_s:.3f} s",
            f"shared cmat per rank: {self.world.ledgers[0].size_of('cmat')} B",
            "",
            f"{'member':<24s} {'sum_n Q(n)':>14s} {'sum_n |phi|^2':>14s} "
            f"{'saturated':>10s}",
        ]
        for inp, hist in zip(self.inputs, self.histories):
            flux = float(hist.flux[-1].sum())
            amp = float(hist.phi2[-1].sum())
            sat = "yes" if hist.is_saturated() else "no"
            lines.append(f"{inp.name:<24s} {flux:>+14.5e} {amp:>14.5e} {sat:>10s}")
        return "\n".join(lines)
