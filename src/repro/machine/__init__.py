"""Machine model: nodes, links, memory budgets, and rank placement.

This package describes the *virtual HPC machine* that the virtual-MPI
substrate (:mod:`repro.vmpi`) charges communication and compute costs
against.  It replaces the paper's OLCF Frontier testbed (see DESIGN.md,
section 2) with a parametric model:

- :class:`MachineModel` — node count, ranks per node, memory per rank,
  effective compute rate, and intra-/inter-node link parameters.
- :class:`MemoryLedger` — a per-rank allocation ledger with a hard
  capacity, used to decide how many nodes a simulation *needs*.
- Placement strategies mapping ranks to nodes (block / round-robin).
- Presets, including the Frontier-like calibration used by the
  Figure 2 benchmark.
"""

from repro.machine.placement import Placement, RoundRobinPlacement
from repro.machine.presets import (
    degraded_fabric_cluster,
    frontier_like,
    generic_cluster,
    mixed_generation_cluster,
    tiered_gpu_cluster,
)
from repro.machine.topology import DragonflyTopology
