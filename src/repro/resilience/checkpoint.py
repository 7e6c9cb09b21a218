"""Per-member checkpoint store for shrink-and-recover.

Holds, per ensemble member, the global ``(nc, nv, nt)`` state plus the
step/time stamps, and the simulated wall clock at save time (the datum
lost-work accounting is measured against).  Two backends:

- **in-memory** (default): plain array copies — the natural choice for
  a virtual job whose entire state lives in one driver process;
- **on-disk**: ``.npz`` files through :mod:`repro.cgyro.restart`, which
  round-trips the cmat-signature validation a real restart would do.

Checkpoint I/O is modeled as *free* in simulated time — an out-of-band
burst-buffer write that overlaps compute — so a run with checkpoints
enabled and no faults is bit-identical to one without.  Detection,
lost work, and re-assembly are where recovery cost lives; see
:mod:`repro.resilience.ledger`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np

from repro.errors import ResilienceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cgyro.solver import CgyroSimulation
    from repro.xgyro.driver import XgyroEnsemble


@dataclass
class _MemberCheckpoint:
    h_global: "np.ndarray | None"  # None in disk mode (state is on disk)
    path: "Path | None"
    step: int
    time: float


class CheckpointStore:
    """Checkpoints for every member of one ensemble.

    Parameters
    ----------
    directory:
        When given, checkpoints are written as
        ``<directory>/<member label>.npz`` via
        :mod:`repro.cgyro.restart`; otherwise they are held in memory.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self._dir = Path(directory) if directory is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self._members: Dict[str, _MemberCheckpoint] = {}
        self.step = -1
        self.elapsed_at_save = 0.0

    @property
    def has_checkpoint(self) -> bool:
        """Whether :meth:`save` has run at least once."""
        return self.step >= 0

    def labels(self) -> "tuple[str, ...]":
        """Member labels currently checkpointed."""
        return tuple(self._members)

    # ------------------------------------------------------------------
    def save(self, ensemble: "XgyroEnsemble") -> None:
        """Snapshot every current member (replaces the previous save)."""
        members = ensemble.members
        steps = {m.step_count for m in members}
        if len(steps) != 1:
            raise ResilienceError(
                f"members disagree on step count at checkpoint: {sorted(steps)}"
            )
        snap: Dict[str, _MemberCheckpoint] = {}
        for m in members:
            if self._dir is not None:
                path = self._dir / f"{m.label}.npz"
                m.save_checkpoint(path)
                snap[m.label] = _MemberCheckpoint(
                    h_global=None, path=path, step=m.step_count, time=m.time
                )
            else:
                snap[m.label] = _MemberCheckpoint(
                    h_global=m.gather_h(),  # already a copy
                    path=None,
                    step=m.step_count,
                    time=m.time,
                )
        self._members = snap
        self.step = steps.pop()
        self.elapsed_at_save = ensemble.world.elapsed(ensemble.ranks)

    def restore_member(self, sim: "CgyroSimulation") -> None:
        """Reset one member's state/step/time to the stored snapshot."""
        try:
            ckpt = self._members[sim.label]
        except KeyError:
            raise ResilienceError(
                f"no checkpoint stored for member {sim.label!r} "
                f"(have {sorted(self._members)})"
            ) from None
        if ckpt.path is not None:
            sim.load_checkpoint(ckpt.path)
            return
        sim.h_global[...] = ckpt.h_global
        sim.step_count = ckpt.step
        sim.time = ckpt.time
