"""Virtual MPI substrate.

A deterministic, in-process replacement for MPI used by the whole
reproduction (DESIGN.md section 2).  Execution is *lockstep SPMD* in
one address space: a distributed buffer is **one array per simulation**
and a rank's block is a view of it (``{world_rank: view}`` where a
per-rank mapping is wanted), and a collective is an ordinary function
call that

1. moves the real bytes of the two collectives the model issues —
   AllReduce (a sum) and AllToAll(v): a reduction takes its operand as
   one array stacked over the members (:class:`RankStacked`, usually a
   strided view) and delivers one read-only result shared by all; an
   ``alltoall`` hands per-rank blocks over by reference, and
2. advances every participant's *simulated clock* by the modeled cost
   of that collective on the configured machine (entry synchronisation
   = max of participant clocks, as for a real blocking collective).

A *lockstep statement* — every rank calling ``allreduce`` on its own
communicator, several rounds in a row, which SPMD source spells as one
call in a loop — is ``rounds x G`` modeled collectives:
:func:`allreduce_rounds` reduces the data once, and the world keeps the
books of every modeled collective (each its own price, trace event,
span, metric updates and checker admission, as the loop of single
collectives would have produced them) in one booking — given per-chunk
flops, for a whole chunked loop of statements, each chunk's compute
charge first.

This preserves exactly what the paper's argument depends on — which
processes participate in each collective, how many bytes move, and
where the participants sit on the machine — while remaining runnable
and unit-testable on a workstation.

Public surface:

- :class:`VirtualWorld` — ranks, clocks, memory ledgers, trace log.
- :class:`Communicator` — ordered rank group with collective methods
  and sub-communicators (``sub``).
- :func:`allreduce_rounds` — one statement's AllReduces over a family
  of disjoint communicators, charged as one block (given per-chunk
  flops, all chunks, each after its compute charge, as one block).
- :class:`Request` — the handle of a nonblocking collective (``iallreduce`` / ``ialltoall``); a posted collective's
  cost accrues concurrently with subsequent compute charges on the
  same ranks, and ``wait()`` pays only the uncovered remainder.
- :class:`RankStacked` (a reduction's operand as one array),
  :func:`reduce_ranks` (the reduction), algorithm enums, and the cost
  model.
"""

from repro.vmpi.algorithms import (
    AllreduceAlgorithm,
    AlltoallAlgorithm,
    EffectiveLink,
    allreduce_cost,
    alltoall_cost,
)
from repro.vmpi.communicator import Communicator, Request, allreduce_rounds
from repro.vmpi.cost import CommCostModel
from repro.vmpi.datatypes import RankStacked, reduce_ranks
from repro.vmpi.tracer import CollectiveEvent, TraceLog
from repro.vmpi.world import PendingCollective, VirtualWorld

__all__ = [
    "VirtualWorld",
    "Communicator",
    "Request",
    "PendingCollective",
    "allreduce_rounds",
    "RankStacked",
    "reduce_ranks",
    "AllreduceAlgorithm",
    "AlltoallAlgorithm",
    "EffectiveLink",
    "CommCostModel",
    "TraceLog",
    "CollectiveEvent",
    "allreduce_cost",
    "alltoall_cost",
]
