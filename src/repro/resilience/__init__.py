"""Fault injection, shrink-and-recover, and the recovery ledger.

The resilience layer answers the operational question the paper's
shared-cmat design raises: sharing one collisional tensor across k
members couples their fates — what happens when a rank or node dies?

The subsystem is deliberately layered like a real FT-MPI stack:

- :mod:`repro.resilience.faults` — a deterministic, seedable
  :class:`FaultPlan` describing *what* dies and *when*;
- :mod:`repro.resilience.injector` — the :class:`FaultInjector` the
  virtual world consults at every collective boundary, charging the
  detection timeout and raising :class:`~repro.errors.RankFailure`;
- :mod:`repro.resilience.checkpoint` — per-member checkpoint store
  (in-memory or on-disk via :mod:`repro.cgyro.restart`);
- :mod:`repro.resilience.recovery` — :func:`shrink_and_recover`,
  deciding which members a failure takes down and, under the
  degrade-vs-abort :class:`RecoveryPolicy`, whether to go on,
  then rebuilding the Figure-3 partition over the survivors and
  recomputing only the lost cmat shards;
- :mod:`repro.resilience.ledger` — the recovery-cost ledger
  (detection, lost work, re-assembly, plus SDC repairs and straggler
  migrations) in simulated seconds: the one book every report,
  benchmark and node-health incident of a run reads;
- :mod:`repro.resilience.health` — gray-failure response:
  :class:`NodeHealthTracker` (per-node incident ledger with circuit-
  breaker quarantine), :class:`RetryPolicy` (bounded exponential
  backoff for campaign requeues), and :class:`StragglerDetector`
  (robust-deviation flagging over per-rank imposed collective waits);
- :mod:`repro.resilience.runner` — :class:`ResilientXgyroRunner`,
  the driver loop tying it all together, including the checkpoint-
  boundary SDC checksum scan and speculative straggler migration.
"""

from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.health import NodeHealthTracker, RetryPolicy
from repro.resilience.injector import FaultInjector
from repro.resilience.runner import ResilientXgyroRunner
