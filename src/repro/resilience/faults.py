"""Deterministic fault plans.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec`
entries — *this rank dies at that step*, *that node drops out*, *this
link degrades* — plus the detection timeout the machine charges when a
group discovers a dead peer.  Plans are pure data: JSON-serialisable,
seedable via :meth:`FaultPlan.random`, and validated against a world
before use, so a faulted run is exactly reproducible from (plan, input)
alone.  Injection itself lives in :mod:`repro.resilience.injector`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from repro import records
from repro.errors import FaultPlanError

#: Data-plane fault kinds (injected into one job's virtual world).
DATA_KINDS = ("rank_crash", "node_loss", "link_slowdown", "slowdown", "bitflip")

#: Control-plane fault kinds (injected into the online service loop,
#: keyed by simulated time ``at_s`` rather than ensemble step).
CONTROL_KINDS = ("service_crash", "provision_fail", "domain_loss")

#: Fault kinds a plan may contain.
KINDS = DATA_KINDS + CONTROL_KINDS


@dataclass(frozen=True)
class FaultSpec(records.Record):
    """One injected fault.

    Parameters
    ----------
    kind:
        ``"rank_crash"`` kills one rank, ``"node_loss"`` kills every
        rank placed on one node, ``"link_slowdown"`` multiplies the
        cost of matching collectives (a flaky cable, not a death),
        ``"slowdown"`` makes one rank (or every rank on one node) run
        ``factor``× slower — a straggler: its compute charges stretch
        and every collective it joins stalls on it — and ``"bitflip"``
        flips one bit of the target rank's shared-cmat shard in place
        (silent data corruption; nothing crashes, the physics silently
        rots unless a checksum guard catches it).
    at_step:
        Ensemble step index (0-based) from which the fault is armed;
        it fires at the first matching collective boundary at or after
        that step — the earliest point a lockstep job can observe it.
        (``slowdown`` compute stretching and ``bitflip`` corruption
        apply from the start of that step.)  Control-plane kinds ignore
        it and trigger on ``at_s`` instead.
    rank:
        Target world rank (``rank_crash``, ``bitflip``, and rank-
        targeted ``slowdown``).
    node:
        Target node id (``node_loss`` and node-targeted ``slowdown``),
        or the *fault-domain* id for ``domain_loss``.
    factor:
        Cost multiplier >= 1 (``link_slowdown`` and ``slowdown``).
    phase:
        Optional category gate (e.g. ``"coll_comm"``): the fault only
        fires/applies inside that phase.  Empty matches any phase.
    at_s:
        Simulated-clock trigger time for control-plane kinds
        (``service_crash`` kills and recovers the service loop,
        ``provision_fail`` sabotages the next pool grow request,
        ``domain_loss`` takes out every node of one fault domain).
        ``-1`` (the default) on data-plane kinds means unused.
    duration_s:
        Outage length: downtime of a ``service_crash``, stall added to
        a ``provision_fail`` grow (``0`` fails the grow outright), and
        the time until a lost domain's nodes become provisionable
        again (``0`` keeps them gone for the rest of the run).
    """

    kind: str
    at_step: int
    rank: int = -1
    node: int = -1
    factor: float = 1.0
    phase: str = ""
    at_s: float = -1.0
    duration_s: float = 0.0

    record_error = FaultPlanError

    def validate(self, *, n_ranks: int, n_nodes: int) -> None:
        """Raise :class:`FaultPlanError` unless consistent with a world."""
        if self.kind not in KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.at_step < 0:
            raise FaultPlanError(f"at_step must be >= 0, got {self.at_step}")
        if self.duration_s < 0:
            raise FaultPlanError(
                f"duration_s must be >= 0, got {self.duration_s}"
            )
        if self.kind in CONTROL_KINDS and self.at_s < 0:
            raise FaultPlanError(
                f"{self.kind} is a control-plane fault and needs at_s >= 0, "
                f"got {self.at_s}"
            )
        if self.kind == "rank_crash":
            if not 0 <= self.rank < n_ranks:
                raise FaultPlanError(
                    f"rank_crash targets rank {self.rank}, world has "
                    f"ranks [0, {n_ranks})"
                )
        elif self.kind == "node_loss":
            if not 0 <= self.node < n_nodes:
                raise FaultPlanError(
                    f"node_loss targets node {self.node}, machine has "
                    f"nodes [0, {n_nodes})"
                )
        elif self.kind == "link_slowdown":
            if not self.factor >= 1.0:
                raise FaultPlanError(
                    f"link_slowdown factor must be >= 1, got {self.factor}"
                )
        elif self.kind == "slowdown":
            if not self.factor >= 1.0:
                raise FaultPlanError(
                    f"slowdown factor must be >= 1, got {self.factor}"
                )
            has_rank = 0 <= self.rank < n_ranks
            has_node = 0 <= self.node < n_nodes
            if not (has_rank or has_node):
                raise FaultPlanError(
                    f"slowdown must target a valid rank [0, {n_ranks}) or "
                    f"node [0, {n_nodes}); got rank={self.rank} node={self.node}"
                )
        elif self.kind == "bitflip":
            if not 0 <= self.rank < n_ranks:
                raise FaultPlanError(
                    f"bitflip targets rank {self.rank}, world has "
                    f"ranks [0, {n_ranks})"
                )
        elif self.kind == "domain_loss":
            if self.node < 0:
                raise FaultPlanError(
                    f"domain_loss targets fault domain {self.node}; "
                    "the domain id must be >= 0"
                )


@dataclass(frozen=True)
class FaultPlan(records.Record):
    """A reproducible schedule of faults for one run.

    ``detection_timeout_s`` is the simulated seconds a surviving group
    burns before concluding a peer is dead (ULFM-style shrink recovery
    puts this in the tens of seconds on real machines).
    """

    specs: Tuple[FaultSpec, ...] = ()
    detection_timeout_s: float = 30.0
    seed: int = 0

    #: ``--faults`` files lead with the scalars
    record_keys = ("detection_timeout_s", "seed", "specs")
    record_error = FaultPlanError

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if self.detection_timeout_s < 0:
            raise FaultPlanError(
                f"detection_timeout_s must be >= 0, got {self.detection_timeout_s}"
            )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: a run under it is bit-identical to no plan."""
        return cls(specs=(), detection_timeout_s=0.0)

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        n_steps: int,
        n_ranks: int,
        n_nodes: int,
        n_faults: int = 1,
        kinds: Union[str, Sequence[str]] = ("rank_crash", "node_loss"),
        detection_timeout_s: float = 30.0,
        horizon_s: float = 0.0,
        n_domains: int = 0,
    ) -> "FaultPlan":
        """Seeded random plan (the ensemble-campaign generator).

        Steps are drawn uniformly from ``[1, n_steps)`` so step 0 — the
        initial checkpoint — always completes.  ``kinds`` may be any
        subset of :data:`KINDS`, the string ``"all"`` (every kind), or
        ``"data"`` / ``"control"`` for one plane; control-plane kinds
        need ``horizon_s > 0`` to draw ``at_s`` from, and
        ``domain_loss`` additionally needs ``n_domains >= 1``.
        """
        if n_steps < 2:
            raise FaultPlanError(f"need n_steps >= 2 to place faults, got {n_steps}")
        if isinstance(kinds, str):
            try:
                kinds = {
                    "all": KINDS,
                    "data": DATA_KINDS,
                    "control": CONTROL_KINDS,
                }[kinds]
            except KeyError:
                raise FaultPlanError(
                    f"kinds must be a sequence of kinds or one of "
                    f"'all'/'data'/'control', got {kinds!r}"
                ) from None
        for k in kinds:
            if k not in KINDS:
                raise FaultPlanError(f"unknown fault kind {k!r}")
            if k in CONTROL_KINDS and horizon_s <= 0:
                raise FaultPlanError(
                    f"sampling {k!r} needs horizon_s > 0 to draw at_s from"
                )
            if k == "domain_loss" and n_domains < 1:
                raise FaultPlanError(
                    "sampling 'domain_loss' needs n_domains >= 1"
                )
        rng = np.random.default_rng(seed)
        specs = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(len(kinds)))]
            at_step = int(rng.integers(1, n_steps))
            if kind == "rank_crash":
                specs.append(
                    FaultSpec(kind, at_step, rank=int(rng.integers(n_ranks)))
                )
            elif kind == "node_loss":
                specs.append(
                    FaultSpec(kind, at_step, node=int(rng.integers(n_nodes)))
                )
            elif kind == "slowdown":
                specs.append(
                    FaultSpec(
                        kind,
                        at_step,
                        rank=int(rng.integers(n_ranks)),
                        factor=float(1.0 + 9.0 * rng.random()),
                    )
                )
            elif kind == "bitflip":
                specs.append(
                    FaultSpec(kind, at_step, rank=int(rng.integers(n_ranks)))
                )
            elif kind == "link_slowdown":
                specs.append(
                    FaultSpec(
                        kind,
                        at_step,
                        factor=float(1.0 + 9.0 * rng.random()),
                    )
                )
            elif kind == "service_crash":
                specs.append(
                    FaultSpec(
                        kind,
                        0,
                        at_s=float(horizon_s * rng.random()),
                        duration_s=float(0.05 * horizon_s * rng.random()),
                    )
                )
            elif kind == "provision_fail":
                specs.append(
                    FaultSpec(
                        kind,
                        0,
                        at_s=float(horizon_s * rng.random()),
                        duration_s=float(60.0 * rng.random()),
                    )
                )
            else:  # domain_loss
                specs.append(
                    FaultSpec(
                        kind,
                        0,
                        node=int(rng.integers(n_domains)),
                        at_s=float(horizon_s * rng.random()),
                    )
                )
        plan = cls(
            specs=tuple(specs),
            detection_timeout_s=detection_timeout_s,
            seed=seed,
        )
        plan.validate_for(n_ranks=n_ranks, n_nodes=n_nodes)
        return plan

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate_for(self, *, n_ranks: int, n_nodes: int) -> None:
        """Check every spec against a world's rank/node ranges."""
        for spec in self.specs:
            spec.validate(n_ranks=n_ranks, n_nodes=n_nodes)

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """JSON document for ``--faults`` files."""
        return json.dumps(self.to_dict(), indent=2)

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the plan as JSON."""
        Path(path).write_text(self.to_json())

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load a plan written by :meth:`to_file`; anything else is a
        :class:`FaultPlanError` naming file and key."""
        return records.load_json(cls, path, error=FaultPlanError)
