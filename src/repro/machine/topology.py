"""Network topology refinements.

The flat machine model charges one inter-node latency/bandwidth for
any group spanning nodes.  Frontier's Slingshot network is a
*dragonfly*: nodes are grouped; links within a group are one hop,
links between groups traverse a global link (longer latency, and a
taperable bandwidth).  :class:`DragonflyTopology` refines the cost
model accordingly — group-local collectives stay cheap, machine-wide
ones pay the global-link premium.

This matters to the reproduction because XGYRO's placement argument is
topology-sensitive: with contiguous member blocks, per-member
communicators stay inside a node (or at worst a group), while the
ensemble-wide coll communicator is the one paying global hops; a
scattered placement destroys exactly this (see
``benchmarks/bench_placement_ablation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.errors import MachineError


@dataclass(frozen=True)
class DragonflyTopology:
    """Two-level dragonfly: groups of nodes plus global links.

    Parameters
    ----------
    nodes_per_group:
        Nodes per dragonfly group.
    global_latency_factor:
        Multiplier on the inter-node latency when a rank group spans
        more than one dragonfly group (>= 1).
    global_bandwidth_taper:
        Multiplier (in (0, 1]) on the per-node NIC bandwidth when
        crossing groups — models tapered global links.
    """

    nodes_per_group: int
    global_latency_factor: float = 2.0
    global_bandwidth_taper: float = 0.5

    def __post_init__(self) -> None:
        if self.nodes_per_group < 1:
            raise MachineError(
                f"nodes_per_group must be >= 1, got {self.nodes_per_group}"
            )
        if self.global_latency_factor < 1.0:
            raise MachineError("global_latency_factor must be >= 1")
        if not 0.0 < self.global_bandwidth_taper <= 1.0:
            raise MachineError("global_bandwidth_taper must be in (0, 1]")

    def group_of(self, node: int) -> int:
        """Dragonfly group id of a node."""
        if node < 0:
            raise MachineError(f"node must be >= 0, got {node}")
        return node // self.nodes_per_group

    def spans_groups(self, nodes: Iterable[int]) -> bool:
        """Whether a node set crosses a group boundary."""
        groups = {self.group_of(n) for n in nodes}
        return len(groups) > 1

    def latency_factor(self, nodes: Iterable[int]) -> float:
        """Latency multiplier for a collective over these nodes."""
        return self.global_latency_factor if self.spans_groups(nodes) else 1.0

    def bandwidth_factor(self, nodes: Iterable[int]) -> float:
        """Bandwidth multiplier for a collective over these nodes."""
        return self.global_bandwidth_taper if self.spans_groups(nodes) else 1.0


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultDomains:
    """Correlated failure domains: racks (or switches) of nodes.

    The cost-model grouping above is about *latency*; this one is about
    *blast radius*.  Nodes sharing a rack PDU or a leaf switch fail
    together — a tripped breaker or a dead switch takes out
    ``nodes_per_domain`` consecutive node ids at once (the
    ``domain_loss`` fault kind).  The placement consequence is the
    inverse of the latency argument: a job that *spreads* its nodes
    across domains survives a domain loss with shrink-and-recover,
    while a domain-packed job loses every member in one blow.

    Parameters
    ----------
    nodes_per_domain:
        Consecutive node ids per fault domain (the rack size).
    """

    nodes_per_domain: int

    def __post_init__(self) -> None:
        if self.nodes_per_domain < 1:
            raise MachineError(
                f"nodes_per_domain must be >= 1, got {self.nodes_per_domain}"
            )

    def domain_of(self, node: int) -> int:
        """Fault-domain id of a node."""
        if node < 0:
            raise MachineError(f"node must be >= 0, got {node}")
        return node // self.nodes_per_domain

    def n_domains(self, n_nodes: int) -> int:
        """Domains covering a machine of ``n_nodes`` nodes."""
        if n_nodes < 1:
            raise MachineError(f"n_nodes must be >= 1, got {n_nodes}")
        return (n_nodes + self.nodes_per_domain - 1) // self.nodes_per_domain

    def nodes_in(self, domain: int, n_nodes: int) -> List[int]:
        """Node ids of ``domain`` on a machine of ``n_nodes`` nodes."""
        if not 0 <= domain < self.n_domains(n_nodes):
            raise MachineError(
                f"domain {domain} out of range "
                f"[0, {self.n_domains(n_nodes)})"
            )
        lo = domain * self.nodes_per_domain
        return list(range(lo, min(lo + self.nodes_per_domain, n_nodes)))

    def interleave(self, nodes: Sequence[int]) -> List[int]:
        """Reorder ``nodes`` round-robin across domains: the first
        pick of every domain (ascending), then the second of each, and
        so on — the spread-maximising selection order.  Taking any
        prefix of the result touches as many domains as possible."""
        by_domain: dict = {}
        for n in sorted(nodes):
            by_domain.setdefault(self.domain_of(n), []).append(n)
        out: List[int] = []
        lanes = [by_domain[d] for d in sorted(by_domain)]
        depth = 0
        while len(out) < len(nodes):
            for lane in lanes:
                if depth < len(lane):
                    out.append(lane[depth])
            depth += 1
        return out
