"""Rank-to-node placement strategies.

The communication cost of a collective depends on how its participants
are spread across nodes (intra- vs inter-node links, NIC sharing), so
the virtual world needs an explicit map from world rank to node.  Block
placement — consecutive ranks fill a node before spilling to the next —
is the launcher default on Frontier-class machines and the default here;
it is also what makes XGYRO's small per-member AllReduce groups land
entirely inside a node (DESIGN.md, section 5).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.errors import PlacementError
from repro.machine.model import MachineModel


class Placement:
    """Base class: maps world ranks to node ids.

    Subclasses implement :meth:`node_of`.  The helpers that profile a
    rank group live here so every strategy gets them for free.
    """

    def __init__(self, machine: MachineModel, n_ranks: int) -> None:
        if n_ranks < 1:
            raise PlacementError(f"n_ranks must be >= 1, got {n_ranks}")
        if n_ranks > machine.n_ranks:
            raise PlacementError(
                f"cannot place {n_ranks} ranks on {machine.name} "
                f"({machine.n_nodes} nodes x {machine.ranks_per_node} ranks = "
                f"{machine.n_ranks} slots)"
            )
        self.machine = machine
        self.n_ranks = n_ranks

    def node_of(self, rank: int) -> int:
        """Node id hosting ``rank``."""
        raise NotImplementedError

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise PlacementError(f"rank {rank} out of range [0, {self.n_ranks})")

    # ------------------------------------------------------------------
    # group profiling (used by the cost model)
    # ------------------------------------------------------------------
    def nodes_of(self, ranks: Iterable[int]) -> Tuple[int, ...]:
        """Sorted distinct node ids hosting ``ranks``."""
        return tuple(sorted({self.node_of(r) for r in ranks}))

    def ranks_per_node_of(self, ranks: Iterable[int]) -> Dict[int, int]:
        """Map node id -> number of group members on that node."""
        counts: Dict[int, int] = {}
        for r in ranks:
            node = self.node_of(r)
            counts[node] = counts.get(node, 0) + 1
        return counts

    def spans_nodes(self, ranks: Iterable[int]) -> bool:
        """True when the group touches more than one node."""
        it = iter(ranks)
        try:
            first_node = self.node_of(next(it))
        except StopIteration:
            return False
        return any(self.node_of(r) != first_node for r in it)


class BlockPlacement(Placement):
    """Consecutive ranks pack each node in turn (launcher default)."""

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.machine.ranks_per_node


class RoundRobinPlacement(Placement):
    """Ranks are dealt cyclically across the nodes actually used.

    Uses ``ceil(n_ranks / ranks_per_node)`` nodes so the job footprint
    matches block placement; only the assignment pattern differs.
    """

    def __init__(self, machine: MachineModel, n_ranks: int) -> None:
        super().__init__(machine, n_ranks)
        self._nodes_used = -(-n_ranks // machine.ranks_per_node)

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank % self._nodes_used

