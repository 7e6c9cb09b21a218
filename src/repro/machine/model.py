"""Parametric model of an HPC machine.

The model is intentionally simple: a machine is a homogeneous set of
nodes, each hosting a fixed number of ranks (one rank per GPU/GCD in the
Frontier picture).  Two link classes exist — intra-node (shared memory /
xGMI) and inter-node (NIC) — each described by a latency and a
bandwidth.  The inter-node bandwidth is *per node* and is shared by all
ranks of that node participating in a collective, which is how NIC
contention enters the cost model.

A fixed ``per_call_overhead_s`` charges the host-side cost of staging a
collective (buffer packing, device-host transfer, launch) that real
GPU-resident codes such as CGYRO pay on every MPI call; it is the
p-independent offset that keeps observed AllReduce scaling sub-linear
(see DESIGN.md, section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.errors import MachineError

#: Convenience byte multipliers.
KiB = 1024
MiB = 1024**2
GiB = 1024**3


@dataclass(frozen=True)
class LinkParams:
    """Latency/bandwidth pair describing one link class.

    Parameters
    ----------
    latency_s:
        One-way message latency in seconds.
    bandwidth_Bps:
        Sustained bandwidth in bytes/second.  For the inter-node link
        this is the *per-node* NIC bandwidth, shared by the node's
        communicating ranks.
    """

    latency_s: float
    bandwidth_Bps: float

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise MachineError(f"latency must be >= 0, got {self.latency_s}")
        if self.bandwidth_Bps <= 0:
            raise MachineError(f"bandwidth must be > 0, got {self.bandwidth_Bps}")


@dataclass(frozen=True)
class MachineModel:
    """A homogeneous multi-node machine.

    Parameters
    ----------
    name:
        Human-readable identifier (appears in reports).
    n_nodes:
        Number of nodes available to a job.
    ranks_per_node:
        MPI ranks hosted per node (1 per GPU/GCD on Frontier: 8).
    mem_per_rank_bytes:
        Memory budget of one rank (HBM of one GCD on Frontier).
    flops_per_rank:
        Effective sustained compute rate of one rank, in flop/s.  This
        is a *calibrated effective* rate, not a peak.
    intra:
        Link parameters for ranks on the same node.
    inter:
        Link parameters between nodes; bandwidth is per-node NIC.
    per_call_overhead_s:
        Fixed host-side overhead charged once per collective call.
    topology:
        Optional :class:`~repro.machine.topology.DragonflyTopology`
        refining inter-node costs with group-locality factors; ``None``
        models a flat network.
    node_speed:
        Optional per-node compute-speed multipliers (length ``n_nodes``,
        all > 0).  A rank on node ``i`` sustains
        ``flops_per_rank * node_speed[i]`` flop/s.  ``None`` means every
        node runs at the nominal rate (exactly the homogeneous model).
    node_bandwidth:
        Optional per-node NIC-bandwidth multipliers (length ``n_nodes``,
        all > 0).  Node ``i``'s inter-node NIC sustains
        ``inter.bandwidth_Bps * node_bandwidth[i]`` bytes/s.  ``None``
        means the nominal NIC everywhere.
    """

    name: str
    n_nodes: int
    ranks_per_node: int
    mem_per_rank_bytes: float
    flops_per_rank: float
    intra: LinkParams
    inter: LinkParams
    per_call_overhead_s: float = 0.0
    topology: "object | None" = None
    node_speed: Optional[Tuple[float, ...]] = None
    node_bandwidth: Optional[Tuple[float, ...]] = None
    #: optional :class:`~repro.machine.topology.FaultDomains` grouping
    #: physical node ids into correlated failure domains (racks); a
    #: control-plane concept — job worlds never see it.  ``None`` means
    #: failures are independent per node.
    fault_domains: "object | None" = None

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise MachineError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.ranks_per_node < 1:
            raise MachineError(f"ranks_per_node must be >= 1, got {self.ranks_per_node}")
        if self.mem_per_rank_bytes <= 0:
            raise MachineError("mem_per_rank_bytes must be > 0")
        if self.flops_per_rank <= 0:
            raise MachineError("flops_per_rank must be > 0")
        if self.per_call_overhead_s < 0:
            raise MachineError("per_call_overhead_s must be >= 0")
        for attr in ("node_speed", "node_bandwidth"):
            value = getattr(self, attr)
            if value is None:
                continue
            # normalise lists to tuples so the dataclass stays hashable
            if not isinstance(value, tuple):
                value = tuple(value)
                object.__setattr__(self, attr, value)
            if len(value) != self.n_nodes:
                raise MachineError(
                    f"{attr} must have one entry per node "
                    f"({self.n_nodes}), got {len(value)}"
                )
            if any(m <= 0 for m in value):
                raise MachineError(f"{attr} multipliers must be > 0")

    @property
    def n_ranks(self) -> int:
        """Total ranks the machine can host."""
        return self.n_nodes * self.ranks_per_node

    def speed_of(self, node: int) -> float:
        """Compute-speed multiplier of ``node`` (1.0 when homogeneous)."""
        if node < 0 or node >= self.n_nodes:
            raise MachineError(f"node {node} out of range [0, {self.n_nodes})")
        return 1.0 if self.node_speed is None else self.node_speed[node]

    def bandwidth_factor_of(self, node: int) -> float:
        """NIC-bandwidth multiplier of ``node`` (1.0 when homogeneous)."""
        if node < 0 or node >= self.n_nodes:
            raise MachineError(f"node {node} out of range [0, {self.n_nodes})")
        return 1.0 if self.node_bandwidth is None else self.node_bandwidth[node]

    def submachine(self, nodes: Sequence[int]) -> "MachineModel":
        """The machine restricted to the given physical ``nodes``.

        Job worlds index nodes locally (0..len(nodes)-1); this carries
        the *physical* per-node multipliers over into that local space,
        in the order given.
        """
        nodes = list(nodes)
        if not nodes:
            raise MachineError("submachine needs at least one node")
        for n in nodes:
            if n < 0 or n >= self.n_nodes:
                raise MachineError(f"node {n} out of range [0, {self.n_nodes})")
        if len(set(nodes)) != len(nodes):
            raise MachineError(f"submachine nodes must be distinct, got {nodes}")

        def pick(mult: Optional[Tuple[float, ...]]):
            return None if mult is None else tuple(mult[n] for n in nodes)

        return replace(
            self,
            n_nodes=len(nodes),
            node_speed=pick(self.node_speed),
            node_bandwidth=pick(self.node_bandwidth),
        )

    def compute_seconds(self, flops: float, *, node: Optional[int] = None) -> float:
        """Seconds one rank needs to execute ``flops`` floating ops.

        ``node`` selects the per-node speed multiplier; omitted (or on a
        homogeneous machine) the nominal rate applies.
        """
        if flops < 0:
            raise MachineError(f"flops must be >= 0, got {flops}")
        if node is None or self.node_speed is None:
            return flops / self.flops_per_rank
        return flops / (self.flops_per_rank * self.speed_of(node))

    def describe(self) -> str:
        """One-paragraph human-readable description."""
        return (
            f"{self.name}: {self.n_nodes} nodes x {self.ranks_per_node} ranks "
            f"({self.n_ranks} ranks), {self.mem_per_rank_bytes / MiB:.2f} MiB/rank, "
            f"{self.flops_per_rank / 1e9:.2f} GF/s/rank, "
            f"intra {self.intra.latency_s * 1e6:.2f} us / "
            f"{self.intra.bandwidth_Bps / GiB:.1f} GiB/s, "
            f"inter {self.inter.latency_s * 1e6:.2f} us / "
            f"{self.inter.bandwidth_Bps / GiB:.1f} GiB/s per node, "
            f"call overhead {self.per_call_overhead_s * 1e6:.1f} us"
        )
