"""Time-history recording of run diagnostics.

Collects the per-report physics (flux spectrum, field amplitudes) and
timing of a run into arrays — the ``out.cgyro.*`` time series a study
actually post-processes — with save/load to ``.npz`` and simple
analysis helpers (saturation detection, time averages).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

import numpy as np

from repro.errors import InputError
from repro.cgyro.restart import read_npz
from repro.cgyro.timing import ReportRow

#: The arrays :meth:`TimeHistory.save` writes; ``categories`` is
#: fixed-width text, so a load never unpickles.
_KEYS = ("steps", "times", "walls", "flux", "phi2", "categories", "category_times")


class TimeHistory:
    """Accumulates report rows into analysable time series."""

    def __init__(self) -> None:
        self._rows: List[ReportRow] = []

    def append(self, row: ReportRow) -> None:
        """Record one reporting interval."""
        if self._rows and row.step <= self._rows[-1].step:
            raise InputError(
                f"non-monotonic report steps: {row.step} after "
                f"{self._rows[-1].step}"
            )
        if self._rows and row.flux.shape != self._rows[-1].flux.shape:
            raise InputError("flux spectrum shape changed mid-history")
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # array views
    # ------------------------------------------------------------------
    @property
    def steps(self) -> np.ndarray:
        """Report step numbers, shape ``(n_reports,)``."""
        return np.array([r.step for r in self._rows], dtype=int)

    @property
    def times(self) -> np.ndarray:
        """Simulation times, shape ``(n_reports,)``."""
        return np.array([r.time for r in self._rows])

    @property
    def walls(self) -> np.ndarray:
        """Simulated wall seconds per interval."""
        return np.array([r.wall_s for r in self._rows])

    @property
    def flux(self) -> np.ndarray:
        """Flux spectra, shape ``(n_reports, nt)``."""
        if not self._rows:
            return np.zeros((0, 0))
        return np.stack([r.flux for r in self._rows])

    @property
    def phi2(self) -> np.ndarray:
        """Field amplitudes, shape ``(n_reports, nt)``."""
        if not self._rows:
            return np.zeros((0, 0))
        return np.stack([r.phi2 for r in self._rows])

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def is_saturated(self) -> bool:
        """Heuristic saturation check on the total field amplitude.

        True when the relative spread of ``sum_n |phi|^2`` over the
        last three reports is below one half.
        """
        if len(self._rows) < 3:
            return False
        tail = self.phi2.sum(axis=1)[-3:]
        mean = tail.mean()
        if mean == 0.0:
            return True
        return float(np.ptp(tail)) / mean < 0.5

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Write the history to ``.npz``."""
        if not self._rows:
            raise InputError("refusing to save an empty history")
        categories = sorted({c for r in self._rows for c in r.categories})
        cat_matrix = np.array(
            [[r.categories.get(c, 0.0) for c in categories] for r in self._rows]
        )
        np.savez_compressed(
            path,
            steps=self.steps,
            times=self.times,
            walls=self.walls,
            flux=self.flux,
            phi2=self.phi2,
            categories=np.array(categories, dtype=str),
            category_times=cat_matrix,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TimeHistory":
        """Read a history written by :meth:`save`; anything else (a
        pickled array included) is an :class:`~repro.errors.InputError`."""
        path = Path(path)
        if not path.exists():
            raise InputError(f"history file not found: {path}")
        data = read_npz(path, _KEYS, "history")
        n, nt, categories = data["steps"].size, data["flux"].shape[1:2], data["categories"]
        shapes = {"steps": (n,), "times": (n,), "walls": (n,), "flux": (n, *nt),
                  "phi2": (n, *nt), "categories": (categories.size,),
                  "category_times": (n, categories.size)}
        if categories.dtype.kind != "U" or len(nt) != 1 or any(
            data[key].shape != shape for key, shape in shapes.items()
        ):
            raise InputError(f"history {path}: arrays of mismatched shapes or kinds")
        hist = cls()
        for i in range(n):
            hist.append(
                ReportRow(
                    step=int(data["steps"][i]),
                    time=float(data["times"][i]),
                    wall_s=float(data["walls"][i]),
                    categories={
                        str(c): float(data["category_times"][i, j])
                        for j, c in enumerate(categories)
                    },
                    flux=np.array(data["flux"][i]),
                    phi2=np.array(data["phi2"][i]),
                )
            )
        return hist
