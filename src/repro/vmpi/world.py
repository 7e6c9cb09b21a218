"""The virtual world: ranks, simulated clocks, memory, accounting.

A :class:`VirtualWorld` owns everything global to one virtual job:

- ``n_ranks`` virtual ranks placed on a :class:`~repro.machine.model.MachineModel`,
- a simulated clock per rank (seconds),
- a :class:`~repro.machine.memory.MemoryLedger` per rank,
- per-rank, per-category time accounting (the CGYRO-style phase
  timers), and
- a :class:`~repro.vmpi.tracer.TraceLog` of every collective.

Time semantics
--------------
Compute is charged per rank (clocks drift apart, as they would under
load imbalance).  A collective first synchronises its participants —
its start time is the max of their clocks — then advances all of them
by the modeled cost.  Wall time of a run is the max clock over the
ranks involved.
"""

from __future__ import annotations

import contextlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.errors import VmpiError
from repro.machine.memory import MemoryLedger
from repro.machine.model import MachineModel
from repro.machine.placement import BlockPlacement, Placement
from repro.vmpi.cost import CommCostModel
from repro.vmpi.tracer import CollectiveEvent, TraceLog


@dataclass
class PendingCollective:
    """A priced collective whose cost has not been charged yet.

    Normally an in-flight nonblocking collective, between post and
    wait: created by :meth:`VirtualWorld.post_collective`; completed
    (clocks advanced, event recorded) by
    :meth:`VirtualWorld.complete_collective`.  The cost is fixed at post
    time — the network makes progress concurrently with whatever
    compute the participants charge next — so at wait time each rank
    pays only the *uncovered* remainder of the cost window
    ``[t_post, t_post + cost_s]``.  A blocking collective is the same
    record charged in full on the spot, never handed out.
    """

    kind: str
    ranks: "tuple[int, ...]"
    nbytes: int
    comm_label: str
    algorithm: Optional[object]
    category: str
    t_post: float
    cost_s: float
    last_arrival: int
    completed: bool = field(default=False)

    @property
    def t_done(self) -> float:
        """Simulated time at which the collective's data movement ends."""
        return self.t_post + self.cost_s


class VirtualWorld:
    """A virtual MPI job on a modeled machine.

    Parameters
    ----------
    machine:
        The machine to run on.
    n_ranks:
        Ranks in the job; defaults to every slot the machine has.
    placement:
        Rank-to-node placement; defaults to block placement.
    enforce_memory:
        When true, per-rank ledgers enforce
        ``machine.mem_per_rank_bytes`` and allocation past it raises
        :class:`~repro.errors.MemoryLimitExceeded`.
    trace:
        Whether to record collective events.
    auto_algorithms:
        Enable message-size-based collective algorithm selection
        (default off: the calibrated cost model assumes the fixed
        ring/pairwise choices).
    """

    def __init__(
        self,
        machine: MachineModel,
        n_ranks: Optional[int] = None,
        *,
        placement: Optional[Placement] = None,
        enforce_memory: bool = False,
        trace: bool = True,
        auto_algorithms: bool = False,
    ) -> None:
        self.machine = machine
        self.n_ranks = machine.n_ranks if n_ranks is None else int(n_ranks)
        if self.n_ranks < 1:
            raise VmpiError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.n_ranks > machine.n_ranks:
            raise VmpiError(
                f"{self.n_ranks} ranks exceed the {machine.n_ranks} slots of {machine.name}"
            )
        self.placement = placement or BlockPlacement(machine, self.n_ranks)
        if self.placement.n_ranks != self.n_ranks:
            raise VmpiError(
                f"placement covers {self.placement.n_ranks} ranks, world has {self.n_ranks}"
            )
        self.cost_model = CommCostModel(
            machine, self.placement, auto_select=auto_algorithms
        )
        self.clock = np.zeros(self.n_ranks, dtype=np.float64)
        # Per-rank collective-wait accounting (straggler forensics):
        # coll_wait_s[r] is the time r spent blocked at collective
        # entry; imposed_wait_s[r] is the total time *other* ranks
        # spent blocked in collectives where r arrived last.  A
        # straggler has low coll_wait and high imposed_wait.
        self.coll_wait_s = np.zeros(self.n_ranks, dtype=np.float64)
        self.imposed_wait_s = np.zeros(self.n_ranks, dtype=np.float64)
        # Per-rank overlap credit: seconds of nonblocking-collective
        # cost that were hidden under compute charged between post and
        # wait.  Purely diagnostic — never double-counted into the
        # per-category busy time.
        self.overlapped_s = np.zeros(self.n_ranks, dtype=np.float64)
        # Open nonblocking collectives, in post order.  The network
        # engine processes one collective at a time per rank — a later
        # post on a rank with an earlier window still open starts only
        # when that window closes — so concurrent requests pipeline
        # (FIFO) instead of accruing impossibly in parallel.
        self._nb_inflight: List[PendingCollective] = []
        limit = machine.mem_per_rank_bytes if enforce_memory else None
        self.ledgers: List[MemoryLedger] = [
            MemoryLedger(limit, rank=r) for r in range(self.n_ranks)
        ]
        self.trace = TraceLog(enabled=trace)
        self._category_stack: List[str] = []
        self._category_time: Dict[int, Dict[str, float]] = {
            r: {} for r in range(self.n_ranks)
        }
        self._seq = 0
        # rank group -> (the group as an int tuple, its clock index array)
        self._groups: Dict[tuple, "tuple[tuple[int, ...], np.ndarray]"] = {}
        # Metric series bound once per label set: ("collective", kind,
        # comm) -> (bytes, count, wait, cost histogram); ("imposed",
        # rank), ("overlapped", comm), ("compute", category) -> counter.
        self._series: Dict[tuple, object] = {}
        self.fault_injector: "object | None" = None
        self.checker: "object | None" = None
        self.tracer: "object | None" = None
        self.metrics: "object | None" = None

    def install_telemetry(
        self, *, tracer: "object | None" = None, metrics: "object | None" = None
    ) -> None:
        """Attach a span tracer and/or metrics registry to this world.

        ``tracer`` — normally a :class:`~repro.obs.span.SpanTracer` —
        receives one leaf span per collective (with byte count and the
        last-arriving rank), one per compute charge, and one per
        group-wide sync, all positioned on the simulated timeline;
        ``metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` —
        accumulates bytes moved per communicator/kind, collective and
        imposed waits, and compute seconds.  Telemetry only *reads*
        the clocks: a world with it installed is bit-identical in
        cost, physics and trace to one without.
        """
        self.tracer = tracer
        self.metrics = metrics
        self._series.clear()

    def span(
        self,
        name: str,
        kind: str = "phase",
        *,
        ranks: "Optional[Iterable[int]]" = None,
        category: Optional[str] = None,
        **attrs: object,
    ):
        """Context manager scoping a tracer span over this world's clock.

        A no-op (null context) when no tracer is installed, so callers
        can instrument unconditionally.  The span's times are the max
        clock over ``ranks`` (default: all) at entry and exit.
        """
        if self.tracer is None:
            return contextlib.nullcontext()
        rks = (
            tuple(int(r) for r in ranks)
            if ranks is not None
            else tuple(range(self.n_ranks))
        )
        cat = category if category is not None else self.current_category
        return self.tracer.span(
            name,
            kind,
            lambda: self.elapsed(rks),
            category=cat,
            ranks=rks,
            **attrs,
        )

    def install_fault_injector(self, injector: "object | None") -> None:
        """Attach (or, with ``None``, detach) a fault injector.

        The injector is consulted at every collective boundary — the
        only points where a virtual job can observe a peer's death,
        just as a real MPI job sees a dead rank as a stalled
        collective.  It must provide
        ``on_collective(kind, ranks, comm_label) -> float`` returning a
        cost multiplier (1.0 when healthy), and may raise
        :class:`~repro.errors.RankFailure` after charging the detection
        timeout through :meth:`sync_charge`.  A world without an
        injector has exactly zero behavioural or cost difference.
        """
        self.fault_injector = injector

    def install_checker(self, checker: "object | None") -> None:
        """Attach (or, with ``None``, detach) a collective checker.

        The checker — normally a
        :class:`~repro.check.checker.CollectiveChecker` — is consulted
        by every :class:`~repro.vmpi.communicator.Communicator`
        collective before it is charged (buffer/kind/membership
        conformance, ``alltoall`` move semantics) and receives every
        recorded :class:`~repro.vmpi.tracer.CollectiveEvent` through
        ``observe_event`` (from :meth:`_record_collective`).  Violations raise
        :class:`~repro.errors.ProtocolError` at the offending call.  A
        world without a checker has exactly zero behavioural or cost
        difference.
        """
        self.checker = checker

    # ------------------------------------------------------------------
    # communicators
    # ------------------------------------------------------------------
    def comm_world(self, label: str = "world"):
        """The communicator containing every rank of the world."""
        from repro.vmpi.communicator import Communicator

        return Communicator(self, tuple(range(self.n_ranks)), label=label)

    # ------------------------------------------------------------------
    # phase/category context
    # ------------------------------------------------------------------
    @property
    def current_category(self) -> str:
        """Innermost active category label ("" if none)."""
        return self._category_stack[-1] if self._category_stack else ""

    @contextlib.contextmanager
    def phase(self, category: str) -> Iterator[None]:
        """Scope within which charges are attributed to ``category``."""
        self._category_stack.append(category)
        try:
            yield
        finally:
            self._category_stack.pop()

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def _add_category_time(self, rank: int, category: str, seconds: float) -> None:
        if not category:
            category = "uncategorized"
        times = self._category_time[rank]
        times[category] = times.get(category, 0.0) + seconds

    def charge_compute(
        self,
        ranks: Union[int, Iterable[int]],
        *,
        seconds: Optional[Union[float, Mapping[int, float]]] = None,
        flops: Optional[Union[float, Mapping[int, float]]] = None,
        category: Optional[str] = None,
    ) -> None:
        """Advance rank clocks by local compute time.

        Exactly one of ``seconds`` / ``flops`` must be given; either may
        be a scalar (same charge for every rank) or a per-rank mapping.
        """
        if (seconds is None) == (flops is None):
            raise VmpiError("provide exactly one of seconds= or flops=")
        rank_list = [ranks] if isinstance(ranks, (int, np.integer)) else list(ranks)
        for r in rank_list:
            if not 0 <= r < self.n_ranks:
                raise VmpiError(f"rank {r} out of range [0, {self.n_ranks})")
        cat = category if category is not None else self.current_category
        mult = getattr(self.fault_injector, "compute_multiplier", None)
        # what kind of charge this is gets decided once, not per rank
        amount = seconds if flops is None else flops
        if isinstance(amount, Mapping):
            amounts = [amount[r] for r in rank_list]
        else:
            amounts = [float(amount)] * len(rank_list)
        if flops is not None:
            to_seconds = self.machine.compute_seconds
            if self.machine.node_speed is not None:
                node_of = self.placement.node_of
                amounts = [
                    to_seconds(fl, node=node_of(r))
                    for r, fl in zip(rank_list, amounts)
                ]
            else:
                amounts = [to_seconds(fl) for fl in amounts]
        charged: Dict[int, float] = {}
        for r, dt in zip(rank_list, amounts):
            if dt < 0:
                raise VmpiError(f"negative time charge {dt} for rank {r}")
            if mult is not None:
                dt *= mult(int(r))
            self.clock[r] += dt
            self._add_category_time(r, cat, dt)
            charged[int(r)] = dt
        if charged:
            total = sum(charged.values())
            if self.metrics is not None and total > 0.0:
                self._counter(
                    ("compute", cat),
                    "vmpi_compute_rank_seconds_total",
                    category=cat or "uncategorized",
                ).inc(total)
            if self.tracer is not None:
                # the span covers the rank whose clock the charge pushed
                # furthest — the one that can pin a later collective
                lead = max(charged, key=lambda r: (self.clock[r], -r))
                dt_lead = charged[lead]
                if dt_lead > 0.0:
                    self.tracer.record(
                        f"compute[{cat or 'uncategorized'}]",
                        "compute",
                        float(self.clock[lead]) - dt_lead,
                        dt_lead,
                        category=cat,
                        ranks=tuple(charged),
                        last_arrival=lead,
                    )

    def charge_collective(
        self,
        kind: str,
        ranks: Sequence[int],
        nbytes: int,
        *,
        comm_label: str,
        algorithm: Optional[object] = None,
        category: Optional[str] = None,
    ) -> float:
        """Synchronise ``ranks``, charge the modeled collective cost.

        Returns the cost in seconds.  Called by
        :class:`~repro.vmpi.communicator.Communicator`; solver code does
        not normally call this directly.
        """
        c, idx = self._price_collective(
            kind, ranks, nbytes, comm_label, algorithm, category
        )
        t_start, cost = c.t_post, c.cost_s
        waits = t_start - self.clock[idx]
        self.coll_wait_s[idx] += waits
        # the total wait is imposed by whoever arrived last
        wait_s = float(waits.sum())
        self.imposed_wait_s[c.last_arrival] += wait_s
        self.clock[idx] = t_start + cost
        for r in c.ranks:
            self._add_category_time(r, c.category, cost)
        self._record_collective(c, wait_s)
        return cost

    def _price_collective(
        self,
        kind: str,
        ranks: Sequence[int],
        nbytes: int,
        comm_label: str,
        algorithm: Optional[object],
        category: Optional[str],
    ) -> "tuple[PendingCollective, np.ndarray]":
        """Consult the fault injector and price one collective.

        ``t_post`` is the moment the last participant arrives (max
        clock over ``ranks``); no clock moves and nothing is booked.
        Also returns ``ranks`` as a clock index array.  The injector's
        factor multiplies the memoised cost afterwards, so a slowdown
        armed mid-run is honoured.
        """
        factor = 1.0
        if self.fault_injector is not None:
            factor = self.fault_injector.on_collective(kind, ranks, comm_label)
        ranks, idx = self._group(ranks)
        clocks = self.clock[idx]
        last = int(clocks.argmax())
        pending = PendingCollective(
            kind=kind,
            ranks=ranks,
            nbytes=int(nbytes),
            comm_label=comm_label,
            algorithm=algorithm,
            category=category if category is not None else self.current_category,
            t_post=float(clocks[last]),
            cost_s=factor
            * self.cost_model.collective_cost(
                kind, ranks, nbytes, algorithm=algorithm
            ),
            last_arrival=ranks[last],
        )
        return pending, idx

    def _group(self, ranks: Sequence[int]) -> "tuple[tuple[int, ...], np.ndarray]":
        """``ranks`` as an int tuple and as a clock index array.

        Both are built once per distinct group and shared by every
        later collective on it (the index array is read-only).
        """
        ranks = tuple(ranks)
        got = self._groups.get(ranks)
        if got is None:
            ranks = tuple(int(r) for r in ranks)
            idx = np.asarray(ranks, dtype=np.intp)
            idx.flags.writeable = False
            got = self._groups[ranks] = (ranks, idx)
        return got

    def post_collective(
        self,
        kind: str,
        ranks: Sequence[int],
        nbytes: int,
        *,
        comm_label: str,
        algorithm: Optional[object] = None,
        category: Optional[str] = None,
    ) -> PendingCollective:
        """Post a nonblocking collective; clocks do not advance.

        The cost window opens at ``t_post`` — the moment the last
        participant has posted (max clock over ``ranks``) — and the
        modeled cost is fixed here, including any fault-injector
        multiplier.  If an earlier nonblocking collective sharing a
        rank is still open, the window instead opens when that one's
        closes: in-flight requests pipeline FIFO through the network
        engine rather than progressing in parallel on one NIC.
        Nothing is charged, traced, or observed yet: that happens at
        :meth:`complete_collective`, so compute charged on the same
        ranks in between overlaps with the in-flight cost.
        """
        pending, _ = self._price_collective(
            kind, ranks, nbytes, comm_label, algorithm, category
        )
        rank_set = set(pending.ranks)
        for open_pending in self._nb_inflight:
            if rank_set.intersection(open_pending.ranks):
                pending.t_post = max(pending.t_post, open_pending.t_done)
        self._nb_inflight.append(pending)
        return pending

    def abandon_inflight(self) -> None:
        """Drop all open nonblocking cost windows.

        Fault-recovery hook, mirroring
        :meth:`~repro.check.CollectiveChecker.abandon_inflight`: after
        a rank failure the stranded windows can never complete, and
        must not serialize the replay's fresh posts behind them.
        """
        self._nb_inflight.clear()

    def complete_collective(self, pending: PendingCollective) -> float:
        """Wait on a posted collective; charge the uncovered remainder.

        Per rank, with ``t_done = t_post + cost``: the time still owed
        is ``wait = max(0, t_done - clock)``; of that, ``min(cost,
        wait)`` is genuine communication (charged to the post-time
        category) and the rest is entry synchronisation (booked to
        ``coll_wait_s``, as for blocking collectives).  The hidden part
        of the cost, ``cost - min(cost, wait)``, is credited to
        ``overlapped_s`` — surfaced via the
        ``vmpi_coll_overlapped_seconds_total`` metric and the span's
        ``overlapped_s`` attribute, never added to category busy time.
        Returns the modeled cost.  Raises :class:`VmpiError` on double
        completion.
        """
        if pending.completed:
            raise VmpiError(
                f"nonblocking {pending.kind} on {pending.comm_label!r} "
                "completed twice"
            )
        try:
            self._nb_inflight.remove(pending)
        except ValueError:
            pass
        if self.fault_injector is not None:
            # dead-rank detection fires at the wait, like a real stalled
            # collective; the healthy-path factor was applied at post
            self.fault_injector.on_collective(
                pending.kind, pending.ranks, pending.comm_label
            )
        pending.completed = True
        idx = self._group(pending.ranks)[1]
        t_done = pending.t_done
        cost = pending.cost_s
        waits = np.maximum(0.0, t_done - self.clock[idx])
        comm = np.minimum(cost, waits)
        sync = waits - comm
        overlapped = cost - comm
        self.coll_wait_s[idx] += sync
        sync_s = float(sync.sum())
        self.imposed_wait_s[pending.last_arrival] += sync_s
        self.overlapped_s[idx] += overlapped
        self.clock[idx] = np.maximum(self.clock[idx], t_done)
        cat = pending.category
        for r, c in zip(pending.ranks, comm):
            self._add_category_time(r, cat, float(c))
        self._record_collective(pending, sync_s, float(overlapped.sum()))
        return cost

    def _record_collective(
        self,
        c: PendingCollective,
        wait_s: float,
        overlapped_s: Optional[float] = None,
    ) -> None:
        """The one place a charged collective becomes visible.

        Appends the :class:`~repro.vmpi.tracer.CollectiveEvent` (next
        ``seq``) to the trace, hands it to the checker, emits the
        collective leaf span and feeds the metric series.  ``wait_s`` is
        the entry wait summed over the participants; ``overlapped_s``
        is given by nonblocking completions only, and is what marks the
        event, the span and the extra overlap series as nonblocking.
        """
        nonblocking = overlapped_s is not None
        kind, comm_label = c.kind, c.comm_label
        self._seq += 1
        event = CollectiveEvent(
            seq=self._seq,
            kind=kind,
            comm_label=comm_label,
            ranks=c.ranks,
            n_nodes=self.cost_model.n_nodes_of(c.ranks),
            nbytes=c.nbytes,
            algorithm=getattr(c.algorithm, "value", "") if c.algorithm else "",
            t_start=c.t_post,
            cost_s=c.cost_s,
            category=c.category,
            nonblocking=nonblocking,
        )
        self.trace.record(event)
        if self.checker is not None:
            self.checker.observe_event(event)
        if self.tracer is not None:
            overlap_attrs = (
                {"nonblocking": True, "overlapped_s": overlapped_s}
                if nonblocking
                else {}
            )
            self.tracer.record(
                f"{kind} [{comm_label}]",
                "collective",
                c.t_post,
                c.cost_s,
                category=c.category,
                ranks=c.ranks,
                nbytes=c.nbytes,
                comm=comm_label,
                last_arrival=c.last_arrival,
                **overlap_attrs,
            )
        if self.metrics is not None:
            key = ("collective", kind, comm_label)
            bound = self._series.get(key)
            if bound is None:
                counter, histogram = self.metrics.counter, self.metrics.histogram
                bound = self._series[key] = (
                    counter("vmpi_collective_bytes_total", kind=kind, comm=comm_label),
                    counter("vmpi_collectives_total", kind=kind),
                    counter("vmpi_coll_wait_seconds_total", comm=comm_label),
                    histogram("vmpi_collective_cost_seconds", kind=kind),
                )
            bytes_total, collectives_total, wait_total, cost_seconds = bound
            bytes_total.inc(float(c.nbytes))
            collectives_total.inc()
            wait_total.inc(wait_s)
            self._counter(
                ("imposed", c.last_arrival),
                "vmpi_imposed_wait_seconds_total",
                rank=c.last_arrival,
            ).inc(wait_s)
            if nonblocking:
                self._counter(
                    ("overlapped", comm_label),
                    "vmpi_coll_overlapped_seconds_total",
                    comm=comm_label,
                ).inc(overlapped_s)
            cost_seconds.observe(c.cost_s)

    def _counter(self, key: tuple, name: str, **labels: object):
        """The registry counter ``name{labels}``, looked up once per ``key``."""
        got = self._series.get(key)
        if got is None:
            got = self._series[key] = self.metrics.counter(name, **labels)
        return got

    def collective_done(self, pending: PendingCollective) -> bool:
        """Whether the cost window of ``pending`` has fully elapsed on
        every participant's clock (a test that never advances time)."""
        idx = self._group(pending.ranks)[1]
        return bool(self.clock[idx].min() >= pending.t_done)

    def sync_charge(
        self,
        ranks: Sequence[int],
        seconds: float,
        *,
        category: Optional[str] = None,
    ) -> float:
        """Synchronise ``ranks`` to their max clock, then charge all of
        them ``seconds`` — the shape of a group-wide stall, such as the
        failure-detection timeout a surviving group burns waiting on a
        dead peer.  Returns the synchronised start time."""
        if seconds < 0:
            raise VmpiError(f"negative time charge {seconds}")
        idx = np.asarray(list(ranks), dtype=np.intp)
        if idx.size == 0:
            return 0.0
        t_start = float(self.clock[idx].max())
        last = int(idx[int(np.argmax(self.clock[idx]))])
        self.clock[idx] = t_start + seconds
        cat = category if category is not None else self.current_category
        for r in idx:
            self._add_category_time(int(r), cat, seconds)
        if self.tracer is not None and seconds > 0.0:
            self.tracer.record(
                f"sync[{cat or 'uncategorized'}]",
                "sync",
                t_start,
                float(seconds),
                category=cat,
                ranks=tuple(int(r) for r in idx),
                last_arrival=last,
            )
        if self.metrics is not None and seconds > 0.0:
            self.metrics.counter(
                "vmpi_sync_seconds_total", category=cat or "uncategorized"
            ).inc(float(seconds) * idx.size)
        return t_start

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def elapsed(self, ranks: Optional[Iterable[int]] = None) -> float:
        """Simulated wall time: max clock over ``ranks`` (default all)."""
        if ranks is None:
            return float(self.clock.max())
        idx = np.asarray(list(ranks), dtype=np.intp)
        return float(self.clock[idx].max()) if idx.size else 0.0

    def category_time(
        self, category: str, ranks: Optional[Iterable[int]] = None, *, reduce: str = "max"
    ) -> float:
        """Accumulated time under ``category`` over ``ranks``.

        ``reduce`` selects the cross-rank aggregation: ``max``
        (wall-like, default), ``mean``, or ``sum``.
        """
        rank_list = list(range(self.n_ranks)) if ranks is None else list(ranks)
        vals = [self._category_time[r].get(category, 0.0) for r in rank_list]
        if not vals:
            return 0.0
        if reduce == "max":
            return max(vals)
        if reduce == "mean":
            return sum(vals) / len(vals)
        if reduce == "sum":
            return sum(vals)
        raise VmpiError(f"unknown reduce {reduce!r}")

    def categories(self) -> "tuple[str, ...]":
        """All category labels charged so far, sorted."""
        names = set()
        for times in self._category_time.values():
            names.update(times)
        return tuple(sorted(names))

    def category_breakdown(
        self, ranks: Optional[Iterable[int]] = None, *, reduce: str = "max"
    ) -> Dict[str, float]:
        """Mapping category -> aggregated time over ``ranks``."""
        return {
            c: self.category_time(c, ranks, reduce=reduce) for c in self.categories()
        }

    def reset_clocks(self) -> None:
        """Zero all clocks and category accumulators (trace retained)."""
        self.clock[:] = 0.0
        self.coll_wait_s[:] = 0.0
        self.imposed_wait_s[:] = 0.0
        self.overlapped_s[:] = 0.0
        self._nb_inflight.clear()
        for times in self._category_time.values():
            times.clear()
