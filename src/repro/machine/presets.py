"""Machine presets.

``frontier_like`` is the calibrated stand-in for the paper's testbed
(OLCF Frontier: 8 GCDs/node, 64 GiB HBM per GCD, Slingshot NICs).  The
latency/bandwidth/overhead constants are *effective* values chosen so
that the simulated Figure 2 numbers land in the paper's ballpark (see
DESIGN.md section 5 and EXPERIMENTS.md); they are not vendor specs.

Because the reproduction runs a dimensionally *scaled-down* nl03c (the
full cmat does not fit a workstation), benchmarks typically pass a
scaled ``mem_per_rank_bytes`` so the memory *arithmetic* of the paper —
one simulation needs >= 32 nodes — is preserved at the scaled size.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import MachineError
from repro.machine.model import GiB, MiB, LinkParams, MachineModel


def frontier_like(
    n_nodes: int = 32,
    *,
    mem_per_rank_bytes: float = 64.0 * GiB,
    flops_per_rank: float = 1.219734e7,
    inter_latency_s: float = 1.540863e-4,
    per_call_overhead_s: float = 8.249401e-3,
) -> MachineModel:
    """A Frontier-like machine with *calibrated* effective parameters.

    The default overhead/latency/rate constants are the output of
    :func:`repro.perf.calibrate.calibrate_machine`: they were fitted so
    that the scaled-down nl03c Figure-2 scenario reproduces the paper's
    published timings (375 s vs 250 s total; 145 s vs 33 s str comm).
    They are *effective* values that absorb the dimensional scale-down
    of the benchmark (the real nl03c moves ~10^3 x more bytes per
    collective), not Frontier vendor specs — see DESIGN.md section 5
    and EXPERIMENTS.md.
    """
    return MachineModel(
        name=f"frontier-like-{n_nodes}n",
        n_nodes=n_nodes,
        ranks_per_node=8,
        mem_per_rank_bytes=mem_per_rank_bytes,
        flops_per_rank=flops_per_rank,
        intra=LinkParams(latency_s=2.0e-6, bandwidth_Bps=50.0 * GiB),
        inter=LinkParams(latency_s=inter_latency_s, bandwidth_Bps=25.0 * GiB),
        per_call_overhead_s=per_call_overhead_s,
    )


def generic_cluster(
    n_nodes: int = 4,
    *,
    ranks_per_node: int = 4,
) -> MachineModel:
    """A small commodity cluster, handy for tests and examples."""
    return MachineModel(
        name=f"generic-cluster-{n_nodes}n",
        n_nodes=n_nodes,
        ranks_per_node=ranks_per_node,
        mem_per_rank_bytes=4.0 * GiB,
        flops_per_rank=1.0e9,
        intra=LinkParams(latency_s=1.0e-6, bandwidth_Bps=20.0 * GiB),
        inter=LinkParams(latency_s=20.0e-6, bandwidth_Bps=10.0 * GiB),
        per_call_overhead_s=5.0e-6,
    )


def throttled_frontier(
    n_nodes: int = 32,
    *,
    n_throttled: int = 16,
    mem_per_rank_bytes: float = 64.0 * GiB,
) -> MachineModel:
    """Frontier-like, but the last ``n_throttled`` nodes run slow.

    Models a power-capped / thermally-throttled partition: the throttled
    nodes sustain 0.7 of the nominal compute rate while the
    network is untouched.  This is the canonical shape where *unbalanced*
    ``CollShard`` splits pay off — balanced shards make the slow nodes
    the collision-phase stragglers.
    """
    if not 0 <= n_throttled <= n_nodes:
        raise MachineError(
            f"n_throttled must be in [0, {n_nodes}], got {n_throttled}"
        )
    base = frontier_like(n_nodes, mem_per_rank_bytes=mem_per_rank_bytes)
    speed = (1.0,) * (n_nodes - n_throttled) + (0.7,) * n_throttled
    return replace(
        base,
        name=f"throttled-frontier-{n_nodes}n-{n_throttled}slow",
        node_speed=speed,
    )


def mixed_generation_cluster(
    n_nodes: int = 8,
    *,
    ranks_per_node: int = 4,
) -> MachineModel:
    """Two hardware generations in one cluster.

    The trailing half of the nodes are the previous generation: slower
    accelerators (0.6 of the rate) *and* an older NIC (0.5 of the
    bandwidth).  Mirrors the mixed PVC/MI250X-style ensembles of the
    Intel Max GPU evaluation (PAPERS.md).
    """
    n_old = int(round(n_nodes * 0.5))
    base = generic_cluster(n_nodes, ranks_per_node=ranks_per_node)
    return replace(
        base,
        name=f"mixed-generation-{n_nodes}n-{n_old}old",
        node_speed=(1.0,) * (n_nodes - n_old) + (0.6,) * n_old,
        node_bandwidth=(1.0,) * (n_nodes - n_old) + (0.5,) * n_old,
    )


def degraded_fabric_cluster(
    n_nodes: int = 8,
    *,
    ranks_per_node: int = 4,
    n_degraded: int = 2,
) -> MachineModel:
    """Uniform compute, but some nodes sit behind a sick NIC/switch.

    Compute is homogeneous; only the inter-node bandwidth of the last
    ``n_degraded`` nodes is reduced, to a quarter.  Exercises the *bandwidth* half of
    the heterogeneity model in isolation — a planner should route the
    communication-heavy groups off the degraded nodes.
    """
    if not 0 <= n_degraded <= n_nodes:
        raise MachineError(
            f"n_degraded must be in [0, {n_nodes}], got {n_degraded}"
        )
    base = generic_cluster(n_nodes, ranks_per_node=ranks_per_node)
    return replace(
        base,
        name=f"degraded-fabric-{n_nodes}n-{n_degraded}deg",
        node_bandwidth=(1.0,) * (n_nodes - n_degraded) + (0.25,) * n_degraded,
    )


def tiered_gpu_cluster(
    n_nodes: int = 12,
    *,
    ranks_per_node: int = 4,
) -> MachineModel:
    """Three GPU tiers in equal thirds (fast / mid / slow: speeds 1.0,
    0.8 and 0.55).

    A coarse stand-in for an ensemble spanning several accelerator
    generations at once; the node list is tiered contiguously so block
    placement maps members onto homogeneous-ish slices.
    """
    base = generic_cluster(n_nodes, ranks_per_node=ranks_per_node)
    per, extra = divmod(n_nodes, 3)
    speed: "list[float]" = []
    for i, s in enumerate((1.0, 0.8, 0.55)):
        speed.extend([s] * (per + (1 if i < extra else 0)))
    return replace(
        base,
        name=f"tiered-gpu-{n_nodes}n-3t",
        node_speed=tuple(speed),
    )


def single_node(ranks: int = 8) -> MachineModel:
    """A single shared-memory node; all communication is intra-node."""
    return MachineModel(
        name=f"single-node-{ranks}r",
        n_nodes=1,
        ranks_per_node=ranks,
        mem_per_rank_bytes=256.0 * MiB,
        flops_per_rank=1.0e9,
        intra=LinkParams(latency_s=0.5e-6, bandwidth_Bps=40.0 * GiB),
        inter=LinkParams(latency_s=0.5e-6, bandwidth_Bps=40.0 * GiB),
        per_call_overhead_s=1.0e-6,
    )
