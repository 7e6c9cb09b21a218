"""Correctness tooling: protocol checking and differential physics.

The paper's contribution rests on two claims the rest of the codebase
asserts but never *checks end-to-end*:

1. splitting the per-member str communicator from the ensemble-wide
   coll communicator (Figure 3) preserves a valid collective
   protocol — no mismatched collectives, no deadlocks; and
2. sharing one distributed cmat changes *no physics* versus k
   independent CGYRO runs.

This package is the verification layer for both:

- :mod:`repro.check.checker` — :class:`CollectiveChecker`, a runtime
  conformance monitor for collective schedules.  Installed on a
  :class:`~repro.vmpi.world.VirtualWorld` it validates every executed
  collective; driven with explicit per-rank programs it simulates
  blocking SPMD execution and turns would-be deadlocks into diagnosed
  :class:`~repro.errors.ProtocolError`\\ s.  Nonblocking requests
  (``iallreduce``/``ialltoall``) follow MPI's ordered-issue rules:

  * further nonblocking collectives may pipeline FIFO on the *same*
    communicator while a request is outstanding — that is legal;
  * a blocking collective, or any collective on a *different*
    communicator sharing a rank, issued mid-request is an
    ``inflight-overlap`` error naming both posts;
  * every post owes exactly one wait — a second wait is
    ``double-wait`` (carrying the original post seqs), a wait with
    nothing outstanding is ``stray-wait``, and requests still open
    when the run finalizes are ``never-waited``;
  * in schedule mode (``run_programs``) posts and waits are separate
    program events, so a wait whose group never fully posts is a
    diagnosed ``deadlock`` instead of a hang.
- :mod:`repro.check.oracle` — the differential physics oracle:
  run an XGYRO shared-cmat ensemble and the sequential CGYRO baseline
  on identical inputs and assert per-member state equivalence,
  reported as an :class:`EquivalenceReport`.
- :mod:`repro.check.invariants` — the chaos scenario harness: named
  control-plane fault schedules (crash, rack loss, provision stall,
  kitchen-sink) run end-to-end through the online service, with the
  global invariants — request conservation, unique disposition,
  ledger balance, WAL-replay fidelity, checker-clean waves,
  exactly-once crash recovery — asserted as
  :class:`~repro.errors.InvariantViolation` on breach.
- :mod:`repro.check.tracelint` — static lint and deterministic replay
  of recorded :class:`~repro.vmpi.tracer.CollectiveEvent` traces,
  including the Figure-1/Figure-3 structural checks.
"""

from repro.check.checker import CollectiveChecker
from repro.check.invariants import builtin_scenarios, run_scenario
from repro.check.oracle import differential_oracle
