"""The ``Plan`` artifact: a tuned job geometry, serialisable byte-stably.

A plan is the autotuner's output contract: everything the campaign
layer needs to launch the tuned job —

- the ensemble size ``k`` and node geometry (count *and* the specific
  physical node ids, because on a heterogeneous machine *which* nodes
  matters as much as how many);
- the collective algorithms to pin on the job world;
- the (possibly unbalanced) ``CollShard`` nc split of the shared
  tensor, or ``None`` for the balanced default.

Serialisation is byte-stable: ``to_json`` sorts keys, uses a fixed
indent, and contains no timestamps or environment-dependent values, so
re-running the planner with the same seed reproduces the file exactly
(asserted by a hypothesis test).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro import records
from repro.errors import PlanError

#: Format tag stamped into every plan file.
PLAN_FORMAT = "repro-plan-v1"


@dataclass(frozen=True)
class PlanChoice(records.Record):
    """One point of the autotuner's design space — a launchable geometry.

    ``nodes`` are *physical* node ids on the planning machine, in the
    order member rank blocks are laid onto them (block placement).
    ``nc_counts`` is the per-coll-comm-rank shard-size vector (length
    ``k * P1``) or ``None`` for the balanced split.  ``overlap`` is the
    step schedule (one of :data:`~repro.cgyro.solver.OVERLAP_MODES`):
    ``"off"`` is the blocking schedule, the pipelined modes hide
    collective cost under compute — physics-neutral either way, so the
    autotuner is free to search over it.
    """

    k: int
    n_nodes: int
    nodes: Tuple[int, ...]
    ranks_per_member: int
    allreduce: str = "ring"
    alltoall: str = "pairwise"
    nc_counts: Optional[Tuple[int, ...]] = None
    overlap: str = "off"

    record_error = PlanError

    def __post_init__(self) -> None:
        if self.k < 1:
            raise PlanError(f"k must be >= 1, got {self.k}")
        if self.n_nodes < 1:
            raise PlanError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if len(self.nodes) != self.n_nodes:
            raise PlanError(
                f"nodes list has {len(self.nodes)} entries, expected "
                f"n_nodes={self.n_nodes}"
            )
        if len(set(self.nodes)) != len(self.nodes):
            raise PlanError(f"plan nodes must be distinct, got {self.nodes}")
        if self.ranks_per_member < 1:
            raise PlanError(
                f"ranks_per_member must be >= 1, got {self.ranks_per_member}"
            )
        from repro.cgyro.solver import OVERLAP_MODES

        if self.overlap not in OVERLAP_MODES:
            raise PlanError(
                f"overlap must be one of {OVERLAP_MODES}, got {self.overlap!r}"
            )
        if self.nc_counts is not None:
            object.__setattr__(
                self, "nc_counts", tuple(int(c) for c in self.nc_counts)
            )
        object.__setattr__(self, "nodes", tuple(int(n) for n in self.nodes))

    @property
    def n_ranks(self) -> int:
        """Total ranks of the planned job."""
        return self.k * self.ranks_per_member

    @property
    def is_unbalanced(self) -> bool:
        """True when the nc split deviates from the balanced one."""
        if self.nc_counts is None:
            return False
        return max(self.nc_counts) - min(self.nc_counts) > 1


@dataclass(frozen=True)
class Plan(records.Record):
    """The full autotuner artifact: choice + provenance + predictions.

    ``signature_key`` is the content hash of the shared tensor the plan
    was tuned for (``CmatSignature.content_hash()``); the packer only
    applies the plan to batches with a matching key.  ``rounds`` is how
    many sequential jobs of ``choice.k`` members serve the
    ``n_members`` originally requested.
    """

    machine_name: str
    input_name: str
    signature_key: str
    n_members: int
    steps_per_report: int
    choice: PlanChoice
    predicted_s: float
    default_predicted_s: float
    predicted_breakdown: Dict[str, float] = field(default_factory=dict)
    seed: int = 0
    method: str = "exhaustive"
    n_evaluated: int = 0

    record_tag = PLAN_FORMAT
    record_error = PlanError

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise PlanError(f"seed must be >= 0, got {self.seed}")

    @property
    def rounds(self) -> int:
        """Sequential jobs needed to serve all requested members."""
        return -(-self.n_members // self.choice.k)

    @property
    def predicted_speedup(self) -> float:
        """Tuned-over-default predicted makespan ratio (>1 = faster)."""
        if self.predicted_s <= 0:
            return float("inf")
        return self.default_predicted_s / self.predicted_s

    def to_json(self) -> str:
        """Byte-stable JSON (sorted keys, fixed indent, no timestamps)."""
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def save(self, path: Union[str, Path]) -> None:
        """Write the plan file."""
        Path(path).write_text(self.to_json())


def load_plan(path: Union[str, Path]) -> Plan:
    """Load a plan file; anything but a well-formed ``repro-plan-v1``
    document is a :class:`~repro.errors.PlanError` naming file and key."""
    return records.load_json(Plan, path, error=PlanError)
