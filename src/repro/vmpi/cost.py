"""Group-aware communication cost model.

Bridges the machine model and the per-algorithm formulas: given the set
of world ranks participating in a collective, derive the *effective*
link the group sees —

- a group confined to one node uses the intra-node link;
- a group spanning nodes pays inter-node latency, and its per-rank
  bandwidth is the node NIC bandwidth divided by the largest number of
  group members sharing one NIC (contention);

— then evaluate the requested collective's formula.  This is what makes
XGYRO's per-member AllReduce groups cheap: with block placement they
fit inside a node and never touch a NIC, while a full-width CGYRO
simulation's groups span several nodes (DESIGN.md section 5).

Both steps are pure functions of their arguments — the machine is a
frozen dataclass and a placement never changes after construction — and
a run issues the same few (kind, group, bytes, algorithm) tuples
thousands of times, so each model keeps two plain dicts: the profile of
every rank group it has seen and the cost of every such tuple.  The
formulas are the miss branch; a hit returns the float they produced.
The tables belong to the model, so they go when its world goes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import CollectiveError
from repro.machine.model import MachineModel
from repro.machine.placement import Placement
from repro.vmpi.algorithms import (
    AllreduceAlgorithm,
    AlltoallAlgorithm,
    EffectiveLink,
    allreduce_cost,
    alltoall_cost,
)


class CommCostModel:
    """Evaluates collective costs for rank groups on a placed machine."""

    def __init__(
        self,
        machine: MachineModel,
        placement: Placement,
        *,
        default_allreduce: AllreduceAlgorithm = AllreduceAlgorithm.RING,
        default_alltoall: AlltoallAlgorithm = AlltoallAlgorithm.PAIRWISE,
    ) -> None:
        self.machine = machine
        self.placement = placement
        self.default_allreduce = default_allreduce
        self.default_alltoall = default_alltoall
        #: rank group -> (effective link, distinct nodes touched)
        self._groups: Dict[Tuple[int, ...], Tuple[EffectiveLink, int]] = {}
        #: (kind, rank group, nbytes, resolved algorithm) -> seconds
        self._costs: Dict[tuple, float] = {}

    def select_algorithm(self, kind: str) -> object:
        """The algorithm a ``kind`` collective runs when its caller
        names none: the fixed default the cost model was calibrated
        with, or the one an autotuned plan pinned in its place."""
        if kind == "allreduce":
            return self.default_allreduce
        if kind == "alltoall":
            return self.default_alltoall
        raise CollectiveError(f"no algorithm selection for kind {kind!r}")

    # ------------------------------------------------------------------
    def _group(self, ranks: Tuple[int, ...]) -> Tuple[EffectiveLink, int]:
        """Memoised profile of a rank group: its link and node count."""
        got = self._groups.get(ranks)
        if got is None:
            per_node = self.placement.ranks_per_node_of(ranks)
            if not per_node:
                raise CollectiveError("cannot profile an empty rank group")
            got = self._groups[ranks] = (self._link_of(per_node), len(per_node))
        return got

    def effective_link(self, ranks: Sequence[int]) -> EffectiveLink:
        """Effective latency/bandwidth/overhead for a rank group."""
        return self._group(tuple(ranks))[0]

    def _link_of(self, per_node: Mapping[int, int]) -> EffectiveLink:
        """The link seen by a group with ``per_node[node]`` members per node."""
        if len(per_node) == 1:
            link = self.machine.intra
            return EffectiveLink(
                latency_s=link.latency_s,
                bandwidth_Bps=link.bandwidth_Bps,
                overhead_s=self.machine.per_call_overhead_s,
            )
        link = self.machine.inter
        latency = link.latency_s
        if self.machine.node_bandwidth is None:
            sharing = max(per_node.values())
            bandwidth = link.bandwidth_Bps / sharing
        else:
            # the group drains at the pace of its most contended /
            # weakest NIC: per-node bandwidth multiplier divided by the
            # members sharing that NIC (identical to the homogeneous
            # formula when every multiplier is 1.0)
            bandwidth = min(
                link.bandwidth_Bps * self.machine.bandwidth_factor_of(node) / count
                for node, count in per_node.items()
            )
        topology = self.machine.topology
        if topology is not None:
            nodes = per_node.keys()
            latency *= topology.latency_factor(nodes)
            bandwidth *= topology.bandwidth_factor(nodes)
        return EffectiveLink(
            latency_s=latency,
            bandwidth_Bps=bandwidth,
            overhead_s=self.machine.per_call_overhead_s,
        )

    def n_nodes_of(self, ranks: Iterable[int]) -> int:
        """Distinct nodes a rank group touches."""
        ranks = tuple(ranks)
        return self._group(ranks)[1] if ranks else 0

    # ------------------------------------------------------------------
    def collective_cost(
        self,
        kind: str,
        ranks: Sequence[int],
        nbytes: float,
        *,
        algorithm: Optional[object] = None,
    ) -> float:
        """Cost in seconds of one collective call.

        ``kind`` is ``allreduce`` or ``alltoall`` (any other kind is a
        :class:`~repro.errors.CollectiveError`); ``nbytes`` follows each
        formula's convention (see :mod:`repro.vmpi.algorithms`).
        """
        # The key carries the algorithm the formula will actually use, so
        # a default reassigned after construction is never served stale.
        if kind == "allreduce":
            algo = algorithm if algorithm is not None else self.default_allreduce
        elif kind == "alltoall":
            algo = algorithm if algorithm is not None else self.default_alltoall
        else:
            algo = None
        ranks = tuple(ranks)
        key = (kind, ranks, nbytes, algo)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = self._formula(kind, ranks, nbytes, algo)
        return cost

    def _formula(
        self, kind: str, ranks: Tuple[int, ...], nbytes: float, algo: object
    ) -> float:
        """Evaluate ``kind``'s formula: the miss branch of the memo."""
        p = len(ranks)
        link = self._group(ranks)[0]
        if kind == "allreduce":
            return allreduce_cost(p, nbytes, link, algo)
        if kind == "alltoall":
            return alltoall_cost(p, nbytes, link, algo)
        raise CollectiveError(f"unknown collective kind {kind!r}")
