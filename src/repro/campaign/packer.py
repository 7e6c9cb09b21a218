"""Bin-packing candidate ensembles onto the machine.

The packer answers, per :class:`~repro.campaign.batcher.CandidateBatch`:
*how many members should run as one job (k), on how many nodes, and
where* — the ensemble-level analogue of choosing an unbalanced
decomposition (Jackson et al.): the machine is carved into unequal
node sets so no slot idles while work is pending.

Capacity is decided the way the solver itself enforces it: per-rank
state bytes plus the worst-case shared-cmat shard, probed against a
:class:`~repro.machine.memory.MemoryLedger` by
:func:`repro.perf.memory.shard_fit` — the same arithmetic the
run-time ledgers apply, so a packed job cannot OOM at dispatch.

The two packing moves:

- **split** an oversized group: a batch whose k members cannot share
  one job on the whole machine is emitted as several jobs, each with
  the largest k that fits;
- **co-schedule** small jobs: jobs are first-fit placed onto disjoint
  contiguous node ranges of the same *wave*; waves run one after
  another, jobs within a wave run concurrently.

When a :class:`~repro.resilience.health.NodeHealthTracker` is
attached, quarantined nodes are struck from the allocatable pool
entirely: wave capacity shrinks, placements slide past the bad
hardware, and a job is never handed a node the circuit breaker has
tripped on.  With nothing quarantined the packing is bit-identical to
the health-free packer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import CampaignError
from repro.cgyro.params import CgyroInput
from repro.grid.decomp import Decomposition
from repro.machine.model import MachineModel
from repro.perf.memory import feasible_shapes, member_decomp, shard_fit
from repro.campaign.batcher import CandidateBatch
from repro.campaign.request import SimRequest
from repro.xgyro.partition import ensemble_nc_counts


@dataclass(frozen=True)
class JobShape:
    """Feasible geometry of one shared-cmat job.

    ``per_rank_cmat_bytes`` is the worst-case shard (uneven nc splits
    give the first ranks one extra configuration point), the planning
    ceiling the ledgers enforce at run time.
    """

    k: int
    n_nodes: int
    n_ranks: int
    ranks_per_member: int
    per_rank_cmat_bytes: int
    per_rank_state_bytes: int


@dataclass(frozen=True)
class PackedJob:
    """One dispatchable XGYRO job: members, geometry, and node range.

    ``tuning`` carries the autotuner's :class:`~repro.plan.artifact.PlanChoice`
    when this job was shaped by a plan — the runner then pins the
    plan's collective algorithms and (possibly unbalanced) nc split on
    the job world.  ``None`` means the untuned defaults.
    """

    job_id: str
    wave: int
    requests: Tuple[SimRequest, ...]
    signature_key: str
    shape: JobShape
    nodes: Tuple[int, ...]
    tuning: "object | None" = None

    @property
    def k(self) -> int:
        """Ensemble size."""
        return len(self.requests)

    @property
    def n_nodes(self) -> int:
        """Nodes occupied."""
        return self.shape.n_nodes


class CampaignPacker:
    """Chooses k, node counts, and node placements for candidate batches.

    Parameters
    ----------
    machine:
        The whole machine the campaign owns.
    prefer_larger_k:
        Pick the largest feasible ensemble size per job (default) —
        maximal sharing, the paper's regime.  ``False`` packs every
        request as its own k=1 job, the FIFO baseline benchmarks
        compare against.
    health:
        Optional :class:`~repro.resilience.health.NodeHealthTracker`;
        nodes it quarantines are excluded from placement (and from
        wave capacity) on every subsequent :meth:`pack`.
    plan:
        Optional autotuner :class:`~repro.plan.artifact.Plan`.  Batches
        whose ``signature_key`` matches the plan's are shaped by the
        plan directly — its k, its node subset, its algorithms, its nc
        split — instead of the greedy default; everything else (and any
        sub-k tail) falls back to the untuned path.  The plan is also
        re-probed against this machine's ledgers, so a stale artifact
        degrades to the default rather than OOMing.
    spread_domains:
        When the machine declares
        :class:`~repro.machine.topology.FaultDomains`, pick a job's
        nodes round-robin across domains instead of the first free run
        — one ``domain_loss`` then costs the job a few members
        (shrink-and-recover) rather than all of them.  ``False``, or a
        machine without domains, keeps the first-fit pick bit-identical
        to the domain-free packer.
    """

    def __init__(
        self,
        machine: MachineModel,
        *,
        prefer_larger_k: bool = True,
        health: "object | None" = None,
        plan: "object | None" = None,
        spread_domains: bool = True,
    ) -> None:
        self.machine = machine
        self.prefer_larger_k = prefer_larger_k
        self.health = health
        self.plan = plan
        self.spread_domains = spread_domains

    def available_nodes(self) -> List[int]:
        """Allocatable node ids: the machine minus any quarantined."""
        if self.health is None:
            return list(range(self.machine.n_nodes))
        return self.health.available_nodes(self.machine.n_nodes)

    def select_nodes(
        self, candidates: Sequence[int], n_nodes: int
    ) -> Tuple[int, ...]:
        """Pick ``n_nodes`` node ids from ``candidates``.

        Without fault domains (or with ``spread_domains=False``) this
        is the first ``n_nodes`` in machine order — the historical
        pick.  With domains it takes the round-robin interleave prefix
        (maximal domain spread), returned sorted so job worlds keep
        ascending physical ids either way.
        """
        if n_nodes > len(candidates):
            raise CampaignError(
                f"cannot select {n_nodes} nodes from {len(candidates)} "
                "candidates"
            )
        domains = self.machine.fault_domains
        if domains is None or not self.spread_domains:
            return tuple(candidates[:n_nodes])
        return tuple(sorted(domains.interleave(candidates)[:n_nodes]))

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------
    def shape_for(
        self, inp: CgyroInput, k: int, *, max_nodes: Optional[int] = None
    ) -> Optional[JobShape]:
        """Smallest-node feasible geometry for k members sharing, or
        ``None`` when no node count up to ``max_nodes`` (default: the
        whole machine) fits."""
        limit = self.machine.n_nodes if max_nodes is None else min(
            self.machine.n_nodes, max_nodes
        )
        for n_nodes, decomp, fit in feasible_shapes(self.machine, inp, k, limit):
            return self._job_shape(k, n_nodes, decomp, fit)
        return None

    @staticmethod
    def _job_shape(
        k: int, n_nodes: int, decomp: Decomposition, fit: Tuple[int, int]
    ) -> JobShape:
        """The :class:`JobShape` of a geometry :func:`shard_fit` admitted."""
        state_b, cmat_b = fit
        return JobShape(
            k=k,
            n_nodes=n_nodes,
            n_ranks=k * decomp.n_proc,
            ranks_per_member=decomp.n_proc,
            per_rank_cmat_bytes=cmat_b,
            per_rank_state_bytes=state_b,
        )

    # ------------------------------------------------------------------
    # splitting oversized groups
    # ------------------------------------------------------------------
    def split(
        self, batch: CandidateBatch
    ) -> List[Tuple[Tuple[SimRequest, ...], JobShape]]:
        """Cut a candidate batch into feasible jobs.

        Greedy maximal sharing: repeatedly take the largest k for which
        some node count fits the *allocatable* machine (quarantined
        nodes excluded).  Raises :class:`CampaignError` when even a
        lone member (k=1) cannot fit — that request can never run on
        this machine (or on what quarantine has left of it).
        """
        jobs: List[Tuple[Tuple[SimRequest, ...], JobShape]] = []
        remaining = list(batch.requests)
        n_avail = len(self.available_nodes())
        while remaining:
            top_k = len(remaining) if self.prefer_larger_k else 1
            chosen: Optional[JobShape] = None
            for k in range(top_k, 0, -1):
                chosen = self.shape_for(
                    remaining[0].input, k, max_nodes=n_avail
                )
                if chosen is not None:
                    break
            if chosen is None:
                quarantined = self.machine.n_nodes - n_avail
                detail = (
                    f" ({quarantined} of {self.machine.n_nodes} nodes "
                    "quarantined)" if quarantined else ""
                )
                raise CampaignError(
                    f"request {remaining[0].request_id!r} "
                    f"({remaining[0].input.name!r}) does not fit "
                    f"{self.machine.name} at any node count, even alone"
                    f"{detail}"
                )
            jobs.append((tuple(remaining[: chosen.k]), chosen))
            remaining = remaining[chosen.k :]
        return jobs

    # ------------------------------------------------------------------
    # plan consumption
    # ------------------------------------------------------------------
    def plan_shape(self, inp: CgyroInput) -> Optional[JobShape]:
        """Ledger-probed :class:`JobShape` for the attached plan's
        choice, or ``None`` when no plan is attached or the artifact
        does not survive re-validation against *this* machine (wrong
        rank geometry, quarantined plan nodes, a shard that no longer
        fits) — the caller then falls back to the greedy default."""
        if self.plan is None:
            return None
        choice = self.plan.choice
        rpn = self.machine.ranks_per_node
        if choice.n_ranks != choice.n_nodes * rpn:
            return None
        avail = set(self.available_nodes())
        if not all(n in avail for n in choice.nodes):
            return None
        decomp = member_decomp(inp, choice.k, choice.ranks_per_member)
        if decomp is None:
            return None
        counts = (
            choice.nc_counts
            if choice.nc_counts is not None
            else ensemble_nc_counts(decomp, choice.k)
        )
        if len(counts) != choice.k * decomp.n_proc_1 or sum(counts) != decomp.dims.nc:
            return None
        fit = shard_fit(self.machine, inp, decomp, max(counts))
        if fit is None:
            return None
        return self._job_shape(choice.k, choice.n_nodes, decomp, fit)

    def _split_with_tuning(
        self, batch: CandidateBatch
    ) -> List[Tuple[Tuple[SimRequest, ...], JobShape, "object | None"]]:
        """:meth:`split`, with the plan applied to its matching batch.

        Full-k groups of a batch whose signature matches the plan's are
        emitted plan-shaped with the choice attached as tuning; the
        sub-k tail (and every other batch) takes the greedy default
        path with ``tuning=None``.
        """
        plan = self.plan
        if (
            plan is not None
            and batch.signature_key == plan.signature_key
        ):
            shape = self.plan_shape(batch.requests[0].input)
            if shape is not None:
                jobs: List[
                    Tuple[Tuple[SimRequest, ...], JobShape, "object | None"]
                ] = []
                remaining = list(batch.requests)
                while len(remaining) >= shape.k:
                    jobs.append(
                        (tuple(remaining[: shape.k]), shape, plan.choice)
                    )
                    remaining = remaining[shape.k :]
                if remaining:
                    tail = CandidateBatch(batch.signature, tuple(remaining))
                    jobs.extend(
                        (reqs, sh, None) for reqs, sh in self.split(tail)
                    )
                return jobs
        return [(reqs, sh, None) for reqs, sh in self.split(batch)]

    # ------------------------------------------------------------------
    # wave packing
    # ------------------------------------------------------------------
    def pack(
        self,
        batches: Sequence[CandidateBatch],
        *,
        job_id_offset: int = 0,
        wave_offset: int = 0,
    ) -> List[List[PackedJob]]:
        """Pack candidate batches into waves of co-scheduled jobs.

        Jobs are created batch by batch (priority order is the
        batcher's) and first-fit placed: each job lands in the earliest
        wave with enough free nodes, on the next free run of that
        wave's allocatable nodes.  Returns the waves in execution
        order; every wave's jobs occupy disjoint node sets of the
        machine.

        Plan-tuned jobs are pinned to the plan's exact node ids — on a
        heterogeneous machine *which* nodes a job owns is part of the
        optimisation — landing in the earliest wave where all of them
        are free (a new wave if none).  Without a plan the packing is
        bit-identical to the plan-free packer.

        ``job_id_offset`` and ``wave_offset`` let a caller that packs
        mid-stream (several pack calls over one campaign, or the online
        service slicing a moving window) keep job ids and wave indices
        globally unique instead of restarting at zero.
        """
        waves: List[List[PackedJob]] = []
        free_nodes: List[set] = []
        seq = job_id_offset
        available = self.available_nodes()
        for batch in batches:
            for requests, shape, tuning in self._split_with_tuning(batch):
                wave_idx: Optional[int] = None
                nodes: Optional[Tuple[int, ...]] = None
                if tuning is not None:
                    # pinned placement: the plan chose these node ids
                    want = tuple(tuning.nodes)
                    for w, free in enumerate(free_nodes):
                        if all(n in free for n in want):
                            wave_idx, nodes = w, want
                            break
                    if wave_idx is None:
                        waves.append([])
                        free_nodes.append(set(available))
                        wave_idx, nodes = len(waves) - 1, want
                else:
                    for w, free in enumerate(free_nodes):
                        if len(free) >= shape.n_nodes:
                            wave_idx = w
                            break
                    if wave_idx is None:
                        waves.append([])
                        free_nodes.append(set(available))
                        wave_idx = len(waves) - 1
                    # first free allocatable nodes, in machine order
                    # (contiguous ids when nothing is quarantined and
                    # no plan job fragments the wave — identical to
                    # the offset-counter packer)
                    free = free_nodes[wave_idx]
                    nodes = self.select_nodes(
                        [n for n in available if n in free],
                        shape.n_nodes,
                    )
                free_nodes[wave_idx].difference_update(nodes)
                waves[wave_idx].append(
                    PackedJob(
                        job_id=f"job{seq:03d}",
                        wave=wave_idx + wave_offset,
                        requests=requests,
                        signature_key=batch.signature_key,
                        shape=shape,
                        nodes=nodes,
                        tuning=tuning,
                    )
                )
                seq += 1
        return waves
