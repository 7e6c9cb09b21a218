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

A lockstep *statement* — ``rounds`` collectives in a row on each of
``G`` disjoint groups, per chunk after its compute charge — is charged
in one pass (:meth:`VirtualWorld.charge_collective_block`) and booked
as one :class:`~repro.vmpi.tracer.CollectiveRows` block: the trace and
the span log build one event and one span per row (one compute span
per chunk) when first read, the metric series take it in one fold.  A
single blocking collective is the one-chunk one-group one-round call
of the same body, a nonblocking completion a one-row block.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.errors import CollectiveError, VmpiError
from repro.machine.memory import MemoryLedger
from repro.machine.model import MachineModel
from repro.machine.placement import BlockPlacement, Placement
from repro.vmpi.cost import CommCostModel
from repro.vmpi.tracer import CollectiveRows, TraceLog


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
    ``[t_post, t_post + cost_s]``.  A blocking collective is charged in
    full on the spot and never becomes one of these.
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
    completed: bool = field(default=False, init=False)

    @property
    def t_done(self) -> float:
        """Simulated time at which the collective's data movement ends."""
        return self.t_post + self.cost_s


def _algorithm_name(algorithm: Optional[object]) -> str:
    """An algorithm as trace events show it ("" when the kind has none)."""
    return getattr(algorithm, "value", "") if algorithm else ""


def _add_times(times: Sequence[Dict[str, float]], key: str, amounts: Iterable[float]) -> None:
    """Add each amount to its rank's category-time dict under ``key``."""
    for book, amount in zip(times, amounts):
        book[key] = book.get(key, 0.0) + amount


def _row_sums(rows: List[List[float]], size: int) -> List[float]:
    """Each row's sum as NumPy's ``sum(axis=1)`` of the ``(G, size)``
    array makes it: left to right from ``0.0`` below 8 columns, pairwise
    from there on (so there it is NumPy's)."""
    if size >= 8:
        return np.array(rows).reshape(len(rows), size).sum(axis=1).tolist()
    sums = []
    for row in rows:
        total = 0.0
        for x in row:
            total += x
        sums.append(total)
    return sums


class _Phase(NamedTuple):
    """The scope of :meth:`VirtualWorld.phase`, a plain context manager."""

    stack: List[str]
    category: str

    def __enter__(self) -> None:
        self.stack.append(self.category)

    def __exit__(self, *exc: object) -> None:
        self.stack.pop()


class _ChargePlan:
    """What one charged statement fixes, built on its first call
    (:meth:`VirtualWorld._plan`) and reused by every later one: a
    statement is ``rounds`` collectives of ``kind`` on each of ``groups``
    per chunk, each after ``ranks`` are charged its compute (``compute =
    (ranks, amounts, in_flops, category)``, an amount per chunk); a
    compute charge is one chunk on no group.  The plan holds the checked
    groups, the static half (unscaled prices, ``int`` byte counts,
    algorithm names, labels, first ranks), each chunk's checked seconds
    and total, every charged rank's category-time dict and key, and the
    telemetry series, each bound on its first use, in the order single
    charges create them (``steady`` once all are but other ranks'
    imposed-wait counters)."""

    __slots__ = (
        "kind", "groups", "flat", "entries", "n_nodes", "costs", "nbytes", "names", "labels",
        "first", "category", "booked", "group_times", "ranks", "ascending", "seconds", "totals",
        "compute_category", "compute_key", "compute_times", "bound", "imposed", "counter",
        "steady",
    )

    def __init__(
        self, world: "VirtualWorld", kind: Optional[str], groups: tuple, nbytes: tuple,
        algorithms: tuple, labels: tuple, category: str, compute: "Optional[tuple]",
    ) -> None:
        self.ranks, self.totals, self.compute_times, self.compute_category = None, (None,), (), ""
        if compute is not None:
            ranks, amounts, in_flops, self.compute_category = compute
            self.ranks = world._group(ranks)[0]
            self.ascending = tuple(sorted(self.ranks))
            self.seconds = [world._compute_seconds(self.ranks, a, in_flops) for a in amounts]
            self.totals = [sum(seconds) for seconds in self.seconds]
            self.compute_times = [world._category_time[r] for r in self.ranks]
        self.compute_key = self.compute_category or "uncategorized"
        self.groups = tuple(world._group(ranks)[0] for ranks in groups)
        flat = [r for ranks in self.groups for r in ranks]
        if len({len(ranks) for ranks in self.groups}) > 1 or len(set(flat)) != len(flat):
            raise CollectiveError(
                f"a block of collectives needs disjoint groups of one size, got {self.groups}"
            )
        price = world.cost_model.collective_cost
        self.costs = tuple(
            price(kind, g, nb, algorithm=a) for g, nb, a in zip(self.groups, nbytes, algorithms)
        )
        self.flat = tuple(flat)
        self.entries = [operator.itemgetter(*ranks) for ranks in self.groups]  # a group's clocks
        self.kind, self.n_nodes = kind, tuple(map(world.cost_model.n_nodes_of, self.groups))
        self.nbytes, self.names = tuple(map(int, nbytes)), tuple(map(_algorithm_name, algorithms))
        self.labels, self.first = labels, tuple(ranks[0] for ranks in self.groups)
        self.category, self.booked = category, category or "uncategorized"
        self.group_times = [[world._category_time[r] for r in ranks] for ranks in self.groups]
        self.bound, self.imposed = [None] * len(self.groups), {}
        self.counter, self.steady = None, False


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
    """

    def __init__(
        self, machine: MachineModel, n_ranks: Optional[int] = None, *,
        placement: Optional[Placement] = None, enforce_memory: bool = False, trace: bool = True,
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
        self.cost_model = CommCostModel(machine, self.placement)
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
        self.ledgers = [MemoryLedger(limit, rank=r) for r in range(self.n_ranks)]
        self.trace = TraceLog(enabled=trace)
        self._category_stack: List[str] = []
        self._category_time: Dict[int, Dict[str, float]] = {r: {} for r in range(self.n_ranks)}
        self._seq = 0
        # checked rank set -> (the set as an int tuple, its clock index
        # array), for collectives and compute / sync charges alike
        self._groups: Dict[tuple, "tuple[tuple[int, ...], np.ndarray]"] = {}
        self._plans: Dict[tuple, "_ChargePlan"] = {}  # charged statement -> its plan
        # Metric series bound once per label set: ("collective", kind,
        # comm) -> (bytes, count, wait, cost histogram); any other -> counter
        self._series: Dict[tuple, object] = {}
        # the injector's compute_multiplier, when its plan has slowdowns
        self._stretch: "object | None" = None
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
        self._plans.clear()  # they hold bound series

    def span(
        self, name: str, kind: str = "phase", *, ranks: "Optional[Iterable[int]]" = None,
        category: Optional[str] = None, **attrs: object,
    ):
        """Context manager scoping a tracer span over this world's clock.

        A no-op (null context) when no tracer is installed, so callers
        can instrument unconditionally.  The span's times are the max
        clock over ``ranks`` (default: all) at entry and exit.
        """
        if self.tracer is None:
            return contextlib.nullcontext()
        rks = tuple(range(self.n_ranks)) if ranks is None else tuple(int(r) for r in ranks)
        cat = category if category is not None else self.current_category
        return self.tracer.span(
            name, kind, lambda: self.elapsed(rks), category=cat, ranks=rks, **attrs
        )

    def install_fault_injector(self, injector: "object | None") -> None:
        """Attach (or, with ``None``, detach) a fault injector.

        The injector is consulted at every collective boundary — the
        only points where a virtual job can observe a peer's death,
        just as a real MPI job sees a dead rank as a stalled
        collective.  A single collective (blocking, posted or waited)
        asks it for
        ``on_collective(kind, ranks, comm_label) -> float``, returning a
        cost multiplier (1.0 when healthy) or raising
        :class:`~repro.errors.RankFailure` after charging the detection
        timeout through :meth:`sync_charge`; an injector that only ever
        meets single collectives needs nothing else.  A statement
        (:meth:`charge_collective_block`) asks once per chunk for
        ``collective_outlook(groups) -> (factor, dead)``, which must
        not raise: the multiplier every collective of the chunk would
        get — it may depend on the step and the phase, not on the group
        — and the index of the first group ``on_collective`` would
        raise for, or ``None``; ``on_collective`` is then called for
        that group only, at the point the loop would have reached it.
        Its ``compute_multiplier(rank)``, like the outlook, may depend
        on the step and the phase only, and is asked once per charged
        rank only if the injector ``has_slowdowns`` — fixed when it is
        installed: an injector without is never asked.  A world without
        an injector has exactly zero behavioural or cost difference.
        """
        self.fault_injector = injector
        slowed = injector is not None and injector.has_slowdowns
        self._stretch = injector.compute_multiplier if slowed else None

    def install_checker(self, checker: "object | None") -> None:
        """Attach (or, with ``None``, detach) a collective checker.

        The checker — normally a
        :class:`~repro.check.checker.CollectiveChecker` — is consulted
        by every :class:`~repro.vmpi.communicator.Communicator`
        collective before it is charged (buffer/kind/membership
        conformance, ``alltoall`` move semantics) and receives every
        charged block of rows through ``lockstep_rows`` (from
        :meth:`_record_rows`).  Violations raise
        :class:`~repro.errors.ProtocolError` at the offending call.  A
        world without a checker has exactly zero behavioural or cost
        difference.
        """
        self.checker = checker

    # ------------------------------------------------------------------
    # communicators
    # ------------------------------------------------------------------
    def comm_world(self):
        """The communicator ``"world"`` containing every rank of the world."""
        from repro.vmpi.communicator import Communicator

        return Communicator(self, tuple(range(self.n_ranks)), label="world")

    # ------------------------------------------------------------------
    # phase/category context
    # ------------------------------------------------------------------
    @property
    def current_category(self) -> str:
        """Innermost active category label ("" if none)."""
        return self._category_stack[-1] if self._category_stack else ""

    def phase(self, category: str) -> "_Phase":
        """Scope within which charges are attributed to ``category``."""
        return _Phase(self._category_stack, category)

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------
    def charge_compute(
        self, ranks: Union[int, Iterable[int]], *,
        seconds: Optional[Union[float, Mapping[int, float]]] = None,
        flops: Optional[Union[float, Mapping[int, float]]] = None,
        category: Optional[str] = None,
    ) -> None:
        """Advance rank clocks by local compute time.

        Exactly one of ``seconds`` / ``flops`` must be given; either may
        be a scalar (same charge for every rank) or a mapping over exactly
        the charged ranks.  The rank set (in range, no rank twice), the
        keys and every amount (finite, non-negative) are checked first.
        """
        if (seconds is None) == (flops is None):
            raise VmpiError("provide exactly one of seconds= or flops=")
        if isinstance(ranks, (int, np.integer)):
            ranks = (ranks,)
        cat = category if category is not None else self.current_category
        amount = seconds if flops is None else flops
        if isinstance(amount, Mapping):
            amount = tuple(amount.items())  # a plan's key hashes
        compute = (tuple(ranks), (amount,), flops is not None, cat)
        plan = self._plan(None, (), (), (), (), "", compute)
        charged, (total, span) = self._book_compute(plan, 0, self.clock)
        _add_times(plan.compute_times, plan.compute_key, charged)
        if self.metrics is not None and total > 0.0:
            (plan.counter or self._bind_compute(plan)).inc(total)
        if self.tracer is not None and span is not None:
            self.tracer.record(f"compute[{plan.compute_key}]", "compute", span[0], span[1],
                               category=cat, ranks=plan.ranks, last_arrival=span[2])

    def _compute_seconds(
        self, rank_list: "tuple[int, ...]", amount: object, in_flops: bool
    ) -> List[float]:
        """Each rank's seconds of a charge of ``amount`` seconds or flops
        — a scalar, or ``(rank, amount)`` pairs naming exactly
        ``rank_list`` — its keys and amounts checked (:class:`VmpiError`)."""
        per_rank = isinstance(amount, tuple)
        if per_rank:
            amount = dict(amount)
            if amount.keys() != set(rank_list):
                named = f"ranks {sorted(amount)}, not {sorted(rank_list)}"
                raise VmpiError(f"per-rank charge names {named}")
            amounts = [amount[r] for r in rank_list]
        else:
            amounts = [float(amount)] * len(rank_list)
        for r, a in zip(rank_list, amounts if per_rank else amounts[:1]):
            if not 0.0 <= a < math.inf:  # NaN fails too
                what = "flop" if in_flops else "time"
                raise VmpiError(f"{what} charge {a} for rank {r} is negative or not finite")
        if not in_flops:
            return amounts
        to_seconds = self.machine.compute_seconds
        return [to_seconds(fl, node=self.placement.node_of(r)) for r, fl in zip(rank_list, amounts)]

    def _book_compute(
        self, plan: "_ChargePlan", c: int, clock: "list | np.ndarray"
    ) -> "tuple[Sequence[float], tuple]":
        """The one compute body (of a :meth:`charge_compute` or a chunk):
        ``clock`` advances by each rank's seconds of ``plan``'s chunk
        ``c``, stretched by the injector's ``compute_multiplier`` when
        its plan has slowdowns.  Returns the seconds charged and the
        stamp ``(total, span)``, the span ``(t_start, seconds, rank)`` of
        the rank pushed furthest, or ``None``."""
        ranks, charged, total = plan.ranks, plan.seconds[c], plan.totals[c]
        if self._stretch is not None:
            charged = [dt * self._stretch(r) for r, dt in zip(ranks, charged)]
            total = sum(charged)
        for r, dt in zip(ranks, charged):
            clock[r] += dt
        if self.tracer is None:  # nobody reads the span
            return charged, (total, None)
        ends = list(map(clock.__getitem__, plan.ascending))  # of a tie the lowest rank
        lead = ranks.index(plan.ascending[ends.index(max(ends))]) if ends else 0
        dt = charged[lead] if ends else 0.0
        span = (float(clock[ranks[lead]]) - dt, dt, ranks[lead]) if dt > 0.0 else None
        return charged, (total, span)

    def charge_collective(
        self, kind: str, ranks: Sequence[int], nbytes: int, *, comm_label: str,
        algorithm: Optional[object] = None,
    ) -> float:
        """Synchronise ``ranks``, charge the modeled collective cost.

        Returns the cost in seconds.  Called by
        :class:`~repro.vmpi.communicator.Communicator`; solver code does
        not normally call this directly.
        """
        factor = 1.0
        if self.fault_injector is not None:
            factor = self.fault_injector.on_collective(kind, ranks, comm_label)
        plan = self._plan(
            kind, (tuple(ranks),), (nbytes,), (algorithm,), (comm_label,), self.current_category,
            None,
        )
        return self._charge_blocking(plan, factor, range(1), 1, 1, None)[0]

    def charge_collective_block(
        self, kind: str, groups: "tuple[tuple[int, ...], ...]", nbytes: Sequence[int],
        rounds: int, *, comm_labels: Sequence[str], algorithms: Sequence[Optional[object]],
        category: Optional[str] = None, admit: "Optional[tuple[str, str]]" = None,
        ranks: Sequence[int] = (), flops: Optional[Sequence[float]] = None,
        compute_category: Optional[str] = None,
    ) -> None:
        """Charge one lockstep statement: ``rounds`` back-to-back
        collectives of ``kind`` on each of ``groups``.

        ``groups`` are ordered, pairwise disjoint and of equal size
        (checked once per statement); ``nbytes``, ``comm_labels`` and
        ``algorithms`` hold one entry per group, each group priced on its
        own; ``rounds`` is an int ``>= 1`` (else
        :class:`~repro.errors.CollectiveError`, before a clock moves).
        The modeled collectives are booked bit for bit as the
        round-major, group-minor loop of :meth:`charge_collective` would
        book them, with ``admit = (op, dtype)`` each admitted by a
        checker as the loop's :meth:`Communicator.allreduce` would be, in
        phase ``category`` (default: the current one).

        Given ``flops``, it is issued once per chunk, chunk ``c`` after
        ``ranks`` are charged ``flops[c]`` under ``compute_category`` as
        :meth:`charge_compute` would.  The injector is asked once per
        chunk (``collective_outlook(groups)``, which does not raise): the
        cost factor and the first group holding a dead rank.  The chunks
        it answers alike are one block, one booking; a changed factor
        starts the next.  A death books the chunks before it, then its
        chunk's compute and round 0 on the groups before the dead one,
        and ``on_collective`` raises for it, as in the loop.
        """
        per_group = (len(nbytes), len(comm_labels), len(algorithms))
        whole = isinstance(rounds, (int, np.integer)) and rounds >= 1
        if not whole or per_group != (len(groups),) * 3:
            raise CollectiveError(
                f"a block of {len(groups)} groups needs rounds >= 1 and one byte count, label"
                f" and algorithm per group, got rounds={rounds!r} and {per_group}"
            )
        category = self.current_category if category is None else category
        compute_category = self.current_category if compute_category is None else compute_category
        plan = self._plan(
            kind, groups, tuple(nbytes), tuple(algorithms), tuple(comm_labels), category,
            None if flops is None else (tuple(ranks), tuple(flops), True, compute_category),
        )
        outlooks = [(1.0, None)] * len(plan.totals)
        if self.fault_injector is not None:
            with self.phase(category):  # asked once per chunk, up to a death
                outlooks = [self.fault_injector.collective_outlook(plan.groups)]
                while len(outlooks) < len(plan.totals) and outlooks[-1][1] is None:
                    outlooks.append(self.fault_injector.collective_outlook(plan.groups))
        stop = 0
        for (factor, dead), run in itertools.groupby(outlooks):
            c, stop = stop, stop + len(list(run))
            live = len(plan.groups) if dead is None else dead
            self._charge_blocking(
                plan, factor, range(c, stop), live, rounds if dead is None else 1, admit
            )
            if dead is not None:
                if admit is not None and self.checker is not None:
                    p = len(plan.groups[dead])
                    self.checker.lockstep_collective(
                        kind, plan.groups[dead], comm_labels[dead], (nbytes[dead],) * p,
                        op=admit[0], dtypes=(admit[1],) * p,
                    )
                with self.phase(category):
                    self.fault_injector.on_collective(kind, plan.groups[dead], comm_labels[dead])

    def _plan(self, *statement: object) -> "_ChargePlan":
        """The :class:`_ChargePlan` of ``statement`` — its ``(kind,
        groups, nbytes, algorithms, labels, category, compute)`` — built
        on its first call and reused by every later one, but planned per
        call while it leaves an algorithm to the cost model's default
        (which may be reassigned)."""
        plan = self._plans.get(statement)
        if plan is None:
            plan = _ChargePlan(self, *statement)
            if None not in statement[3]:
                self._plans[statement] = plan
        return plan

    def _charge_blocking(
        self, plan: "_ChargePlan", factor: float, chunks: range, live: int, rounds: int,
        admit: "Optional[tuple[str, str]]",
    ) -> Sequence[float]:
        """The one blocking-charge body; returns each group's cost.

        Books ``plan``'s ``chunks`` (each its compute, through
        :meth:`_book_compute`, then ``rounds`` rounds) on the first
        ``live`` groups, prices scaled by ``factor``.  Round 0 syncs each
        group and books the entry waits, in plain floats; a later round
        finds it synchronised.  Time is kept by *repeated* addition, as
        single charges keep it.  The block is prepared on a copy of the
        clocks and handed to a checker whole before it is committed;
        each rank's category time is added up in the loop's order, its
        compute key's adds before its comm key's — chunk by chunk where
        the two keys are one."""
        groups, size = plan.groups[:live], len(plan.groups[0])
        costs = plan.costs if factor == 1.0 else [factor * cost for cost in plan.costs]
        clock, clock0 = self.clock.tolist(), None
        t_starts, last_arrival, wait_s, waits, charged, stamps = [], [], [], [], [], []
        for c in chunks:
            if plan.ranks is not None:
                dts, stamp = self._book_compute(plan, c, clock)
                charged.append(dts)
                stamps.append(stamp)
            if size == 1:
                # one-rank groups: nobody waits, the only rank arrives last
                t = list(map(clock.__getitem__, plan.first[:live]))
                wait_s.append([0.0] * live)
                last_arrival.append(plan.first)
            else:
                t, last, w = [], [], []
                for entry in plan.entries[:live]:
                    clocks = entry(clock)
                    t.append(max(clocks))
                    last.append(clocks.index(t[-1]))  # of a tie the first
                    w.append(list(map(t[-1].__sub__, clocks)))
                # a group's total wait is imposed by whoever arrived last
                waits.append(itertools.chain.from_iterable(w))
                wait_s.append(_row_sums(w, size))
                last_arrival.append(list(map(operator.getitem, groups, last)))
            for _ in range(rounds):
                t_starts.append(t)
                t = list(map(operator.add, t, costs))
            for ranks_g, t_g in zip(groups, t):
                for r in ranks_g:
                    clock[r] = t_g
            clock0 = clock0 or clock[:]  # the clocks once chunk 0 is booked
        rows = CollectiveRows(
            plan.kind, groups, plan.n_nodes, plan.nbytes, plan.names, plan.labels, t_starts,
            costs, plan.category, rounds, last_arrival, wait_s,
            None if plan.ranks is None else (plan.compute_category, plan.ranks, stamps), plan,
        )
        # a block the checker refuses raises in its first chunk's replay,
        # so that chunk alone is committed, as the loop committed it
        clean = self.checker is None or self.checker.lockstep_rows(rows, admit)
        n_chunks = len(chunks) if clean else 1
        self.clock[:] = clock if clean else clock0
        if any(map(any, wait_s[: len(waits)])):  # adding 0.0 moves no wait
            coll, imposed = self.coll_wait_s.tolist(), self.imposed_wait_s.tolist()
            for w, last, total in zip(waits[:n_chunks], last_arrival, wait_s):
                for r, x in zip(plan.flat, w):
                    coll[r] += x
                for r, x in zip(last, total):
                    imposed[r] += x
            self.coll_wait_s[:], self.imposed_wait_s[:] = coll, imposed
        charged, ck, bk = (charged or [()])[:n_chunks], plan.compute_key, plan.booked
        for run, n_adds in ([(charged, rounds * len(charged))] if ck != bk
                            else [([dts], rounds) for dts in charged]):
            for times, spent in zip(plan.compute_times, zip(*run)):
                total = times.get(ck, 0.0)
                for dt in spent:
                    total += dt
                times[ck] = total
            for times_g, cost in zip(plan.group_times[:live], costs):
                for times in times_g:
                    busy = times.get(bk, 0.0)
                    for _ in range(n_adds):
                        busy += cost
                    times[bk] = busy
        self._record_rows(rows if clean else rows._replace(t_starts=t_starts[:rounds]), admit, clean)
        assert clean or len(chunks) == 1, "a refused block replayed past its first chunk"
        return costs

    def _group(self, ranks: Iterable[int]) -> "tuple[tuple[int, ...], np.ndarray]":
        """``ranks`` as an int tuple and as a clock index array.

        Both built — and the set checked to be in range with no rank
        twice (:class:`~repro.errors.VmpiError` otherwise) — once per
        distinct set, and shared by every later charge on it (the index
        array is read-only).
        """
        key = tuple(ranks)
        got = self._groups.get(key)
        if got is None:
            ranks = tuple(int(r) for r in key)
            for r in ranks:
                if not 0 <= r < self.n_ranks:
                    raise VmpiError(f"rank {r} out of range [0, {self.n_ranks})")
            if len(set(ranks)) != len(ranks):
                raise VmpiError(f"rank set {ranks} names a rank twice")
            idx = np.asarray(ranks, dtype=np.intp)
            idx.flags.writeable = False
            got = self._groups[key] = (ranks, idx)
        return got

    def post_collective(
        self, kind: str, ranks: Sequence[int], nbytes: int, *, comm_label: str,
        algorithm: Optional[object] = None,
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
        factor = 1.0
        if self.fault_injector is not None:
            factor = self.fault_injector.on_collective(kind, ranks, comm_label)
        ranks, idx = self._group(ranks)
        clocks = self.clock[idx]
        last = int(clocks.argmax())
        plan = self._plan(
            kind, (ranks,), (nbytes,), (algorithm,), (comm_label,), self.current_category, None
        )
        # the injector's factor multiplies the planned cost afterwards,
        # so a slowdown armed mid-run is honoured
        pending = PendingCollective(
            kind, ranks, int(nbytes), comm_label, algorithm, self.current_category,
            float(clocks[last]), factor * plan.costs[0], ranks[last],
        )
        rank_set = set(pending.ranks)
        for open_pending in self._nb_inflight:
            if rank_set.intersection(open_pending.ranks):
                pending.t_post = max(pending.t_post, open_pending.t_done)
        self._nb_inflight.append(pending)
        return pending

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
            raise VmpiError(f"nonblocking {pending.kind} on {pending.comm_label!r} completed twice")
        with contextlib.suppress(ValueError):
            self._nb_inflight.remove(pending)
        if self.fault_injector is not None:
            # dead-rank detection fires at the wait, like a real stalled
            # collective; the healthy-path factor was applied at post
            self.fault_injector.on_collective(pending.kind, pending.ranks, pending.comm_label)
        pending.completed = True
        idx = self._group(pending.ranks)[1]
        t_done, cost = pending.t_done, pending.cost_s
        waits = np.maximum(0.0, t_done - self.clock[idx])
        comm = np.minimum(cost, waits)
        sync = waits - comm
        overlapped = cost - comm
        self.coll_wait_s[idx] += sync
        sync_s = float(sync.sum())
        self.imposed_wait_s[pending.last_arrival] += sync_s
        self.overlapped_s[idx] += overlapped
        self.clock[idx] = np.maximum(self.clock[idx], t_done)
        plan = self._plan(
            pending.kind, (pending.ranks,), (pending.nbytes,), (pending.algorithm,),
            (pending.comm_label,), pending.category, None,
        )
        _add_times(plan.group_times[0], plan.booked, comm.tolist())
        rows = CollectiveRows(
            pending.kind, plan.groups, plan.n_nodes, plan.nbytes, plan.names, plan.labels,
            ((pending.t_post,),), (cost,), pending.category, 1, ((pending.last_arrival,),),
            ((sync_s,),), None, plan, float(overlapped.sum()),
        )
        self._record_rows(rows, None, self.checker is None or self.checker.lockstep_rows(rows))
        return cost

    def _record_rows(
        self, rows: CollectiveRows, admit: "Optional[tuple[str, str]]", clean: bool
    ) -> None:
        """The one place charged collectives become visible: the trace
        (numbered on from the last ``seq``), the span log and the series.
        A checker took a ``clean`` block whole; otherwise each row is
        admitted (with ``admit``), then overlap-checked, so a raise at
        row ``i`` leaves rows ``[0, i)`` booked, as the loop would, and
        row ``i`` in the trace too when the overlap check raised."""
        seq0, checker = self._seq, self.checker
        n = len(rows.t_starts) * len(rows.groups)
        traced = booked = n
        try:
            if not clean:
                traced = booked = 0
                nonblocking = rows.overlapped_s is not None
                for g, t_start, _ in rows.cells(n):
                    if admit is not None:
                        p = len(rows.groups[g])
                        checker.lockstep_collective(
                            rows.kind, rows.groups[g], rows.labels[g], (rows.nbytes[g],) * p,
                            op=admit[0], dtypes=(admit[1],) * p,
                        )
                    traced += 1
                    checker.observe_collective(
                        seq0 + traced, rows.kind, rows.labels[g], rows.groups[g],
                        t_start, rows.costs[g], nonblocking,
                    )
                    booked += 1
        finally:
            self._seq += traced
            self.trace.record_rows(rows, seq0, traced)
            if self.tracer is not None:
                self.tracer.record_rows(rows, booked)
            if self.metrics is not None:
                self._fold_series(rows, booked)

    def _fold_series(self, rows: CollectiveRows, n: int) -> None:
        """Feed the chunks the first ``n`` rows reach to the plan's
        series, bound in the order single charges would create them: per
        chunk the compute seconds, each group's wait and the wait it
        imposed (round 0's) — nothing more once the plan is ``steady``
        and the chunk waited for nobody; bytes and counts by block totals
        (integers, so exact), costs in row order."""
        plan, n_groups, compute = rows.plan, len(rows.groups), rows.compute
        bound, imposed = plan.bound, plan.imposed
        for c, k in rows.chunks(n):
            if compute is not None and compute[2][c][0] > 0.0:
                (plan.counter or self._bind_compute(plan)).inc(compute[2][c][0])
            if plan.steady and not any(rows.wait_s[c]):
                continue  # all clocks met, so each group's first rank arrived last
            for g, last, wait in zip(range(k), rows.last_arrival[c], rows.wait_s[c]):
                series = bound[g] or self._bind_group(plan, g)
                by_last = imposed.get(last) or self._bind_imposed(plan, last)
                if wait:  # adding 0.0 moves no total
                    series[2].inc(wait)
                    by_last.inc(wait)
            for r in plan.first[: max(0, min(k - n_groups, n_groups))]:
                imposed.get(r) or self._bind_imposed(plan, r)
            plan.steady = plan.steady or (None not in bound and imposed.keys() >= set(plan.first))
        for g in range(min(n, n_groups)):
            bytes_total, collectives_total = bound[g][:2]
            count = (n - g + n_groups - 1) // n_groups
            moved = float(rows.nbytes[g]) * count
            assert bytes_total.value + moved <= 2**53, "byte total past exact floats"
            bytes_total.inc(moved)
            collectives_total.inc(count)
        if n:
            if rows.overlapped_s is not None:
                label = rows.labels[0]
                self._counter(
                    ("overlapped", label), "vmpi_coll_overlapped_seconds_total", comm=label
                ).inc(rows.overlapped_s)
            bound[0][3].observe_rows(rows.costs[:n_groups], n)  # row order

    def _bind_group(self, plan: "_ChargePlan", g: int) -> tuple:
        """Group ``g``'s (bytes, count, wait, cost histogram) series."""
        key = ("collective", plan.kind, plan.labels[g])
        got = self._series.get(key)
        if got is None:
            counter, kind, label = self.metrics.counter, plan.kind, plan.labels[g]
            got = self._series[key] = (
                counter("vmpi_collective_bytes_total", kind=kind, comm=label),
                counter("vmpi_collectives_total", kind=kind),
                counter("vmpi_coll_wait_seconds_total", comm=label),
                self.metrics.histogram("vmpi_collective_cost_seconds", kind=kind),
            )
        plan.bound[g] = got
        return got

    def _bind_imposed(self, plan: "_ChargePlan", rank: int):
        """The counter of the waits ``rank`` imposed."""
        got = plan.imposed[rank] = self._counter(
            ("imposed", rank), "vmpi_imposed_wait_seconds_total", rank=rank
        )
        return got

    def _bind_compute(self, plan: "_ChargePlan"):
        """The counter of ``plan``'s compute seconds."""
        key = plan.compute_key
        name = "vmpi_compute_rank_seconds_total"
        plan.counter = self._counter(("compute", key), name, category=key)
        return plan.counter

    def _counter(self, key: tuple, name: str, **labels: object):
        """The registry counter ``name{labels}``, looked up once per ``key``."""
        got = self._series.get(key)
        if got is None:
            got = self._series[key] = self.metrics.counter(name, **labels)
        return got

    def sync_charge(
        self, ranks: Sequence[int], seconds: float, *, category: Optional[str] = None
    ) -> float:
        """Synchronise ``ranks`` to their max clock, then charge all of
        them ``seconds`` — the shape of a group-wide stall, such as the
        failure-detection timeout a surviving group burns waiting on a
        dead peer.  Returns the synchronised start time.  The rank set
        is checked (in range, no rank twice) before any clock moves."""
        if not 0.0 <= seconds < math.inf:  # NaN fails too
            raise VmpiError(f"time charge {seconds} is negative or not finite")
        ranks, idx = self._group(ranks)
        if not ranks:
            return 0.0
        clocks = self.clock[idx]
        t_start = float(clocks.max())
        last = ranks[int(clocks.argmax())]
        self.clock[idx] = t_start + seconds
        cat = category if category is not None else self.current_category
        booked = cat or "uncategorized"
        _add_times([self._category_time[r] for r in ranks], booked, [seconds] * len(ranks))
        if self.tracer is not None and seconds > 0.0:
            self.tracer.record(f"sync[{booked}]", "sync", t_start, float(seconds), category=cat,
                               ranks=ranks, last_arrival=last)
        if self.metrics is not None and seconds > 0.0:
            self._counter(("sync", booked), "vmpi_sync_seconds_total", category=booked).inc(
                float(seconds) * len(ranks)
            )
        return t_start

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def elapsed(self, ranks: Optional[Iterable[int]] = None) -> float:
        """Simulated wall time: max clock over ``ranks`` (default all;
        checked as a charge's ranks are)."""
        if ranks is None:
            return float(self.clock.max())
        idx = self._group(ranks)[1]
        return float(self.clock[idx].max()) if idx.size else 0.0

    def category_time(
        self, category: str, ranks: Optional[Iterable[int]] = None, *, reduce: str = "max"
    ) -> float:
        """Accumulated time under ``category`` over ``ranks``.

        ``reduce`` selects the cross-rank aggregation: ``max``
        (wall-like, default), ``mean``, or ``sum``; ``ranks`` are checked.
        """
        if reduce not in ("max", "mean", "sum"):
            raise VmpiError(f"unknown reduce {reduce!r}")
        rank_list = range(self.n_ranks) if ranks is None else self._group(ranks)[0]
        vals = [self._category_time[r].get(category, 0.0) for r in rank_list]
        if not vals:
            return 0.0
        if reduce == "max":
            return max(vals)
        total = sum(vals)
        return total / len(vals) if reduce == "mean" else total

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
        return {c: self.category_time(c, ranks, reduce=reduce) for c in self.categories()}
