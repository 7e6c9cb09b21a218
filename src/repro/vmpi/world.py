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
``G`` disjoint groups — is charged in one pass over a ``(G, P)`` clock
index (:meth:`VirtualWorld.charge_collective_block`) and booked as
one :class:`~repro.vmpi.tracer.CollectiveRows` block of ``rounds x G``
rows: the trace and the span log keep the block and build one event and
one span per row when first read, the metric series are updated once
per group.  A single blocking collective is the one-group one-round
call of the same body, a nonblocking completion a one-row block.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

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
    completed: bool = field(default=False)

    @property
    def t_done(self) -> float:
        """Simulated time at which the collective's data movement ends."""
        return self.t_post + self.cost_s


def _algorithm_name(algorithm: Optional[object]) -> str:
    """An algorithm as trace events show it ("" when the kind has none)."""
    return getattr(algorithm, "value", "") if algorithm else ""


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
        self,
        machine: MachineModel,
        n_ranks: Optional[int] = None,
        *,
        placement: Optional[Placement] = None,
        enforce_memory: bool = False,
        trace: bool = True,
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
        self.ledgers: List[MemoryLedger] = [
            MemoryLedger(limit, rank=r) for r in range(self.n_ranks)
        ]
        self.trace = TraceLog(enabled=trace)
        self._category_stack: List[str] = []
        self._category_time: Dict[int, Dict[str, float]] = {
            r: {} for r in range(self.n_ranks)
        }
        self._seq = 0
        # checked rank set -> (the set as an int tuple, its clock index
        # array), for collectives and compute / sync charges alike
        self._groups: Dict[tuple, "tuple[tuple[int, ...], np.ndarray]"] = {}
        # ordered family of disjoint equal-size groups -> (the groups,
        # their (G, P) clock index, their node counts)
        self._families: Dict[tuple, "tuple[tuple, np.ndarray, tuple]"] = {}
        # blocking statement (kind, groups, nbytes, algorithms, labels)
        # -> its static half, shared by every block it books
        self._statements: Dict[tuple, "tuple[tuple, ...]"] = {}
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
        collective.  A single collective (blocking, posted or waited)
        asks it for
        ``on_collective(kind, ranks, comm_label) -> float``, returning a
        cost multiplier (1.0 when healthy) or raising
        :class:`~repro.errors.RankFailure` after charging the detection
        timeout through :meth:`sync_charge`; an injector that only ever
        meets single collectives needs nothing else.  A block
        (:meth:`charge_collective_block`) asks once for
        ``collective_outlook(groups) -> (factor, dead)``, which must
        not raise: the multiplier every collective of the block would
        get — it may depend on the step and the phase, not on the group
        — and the index of the first group ``on_collective`` would
        raise for, or ``None``; ``on_collective`` is then called for
        that group only, at the point the loop would have reached it.
        A world without an injector has exactly zero behavioural or
        cost difference.
        """
        self.fault_injector = injector

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
        be a scalar (same charge for every rank) or a mapping over exactly
        the charged ranks.  The rank set (in range, no rank twice), the
        keys and every amount (finite, non-negative) are checked first.
        """
        if (seconds is None) == (flops is None):
            raise VmpiError("provide exactly one of seconds= or flops=")
        if isinstance(ranks, (int, np.integer)):
            ranks = (ranks,)
        rank_list = self._group(ranks)[0]
        self._book_compute(rank_list, self._compute_seconds(rank_list, seconds, flops), category)

    def _compute_seconds(
        self, rank_list: "tuple[int, ...]", seconds: object, flops: object
    ) -> List[float]:
        """Each rank's seconds of one :meth:`charge_compute` charge, its
        keys and amounts checked (:class:`VmpiError`)."""
        # what kind of charge this is gets decided once, not per rank
        amount = seconds if flops is None else flops
        per_rank = isinstance(amount, Mapping)
        if per_rank:
            if amount.keys() != set(rank_list):
                named = f"ranks {sorted(amount)}, not {sorted(rank_list)}"
                raise VmpiError(f"per-rank charge names {named}")
            amounts = [amount[r] for r in rank_list]
        else:
            amounts = [float(amount)] * len(rank_list)
        for r, a in zip(rank_list, amounts if per_rank else amounts[:1]):
            if not 0.0 <= a < math.inf:  # NaN fails too
                what = "time" if flops is None else "flop"
                raise VmpiError(f"{what} charge {a} for rank {r} is negative or not finite")
        if flops is None:
            return amounts
        to_seconds = self.machine.compute_seconds
        if self.machine.node_speed is not None:
            node_of = self.placement.node_of
            return [to_seconds(fl, node=node_of(r)) for r, fl in zip(rank_list, amounts)]
        if per_rank:
            return [to_seconds(fl) for fl in amounts]
        # one rate for every rank: one conversion per charge
        return [to_seconds(float(amount))] * len(rank_list)

    def _book_compute(
        self, rank_list: "tuple[int, ...]", amounts: Sequence[float], cat: Optional[str]
    ) -> None:
        """The one compute body: each rank's clock and category time
        advance by its checked seconds (times the injector's
        ``compute_multiplier``), then the counter and the span."""
        cat = cat if cat is not None else self.current_category
        mult = getattr(self.fault_injector, "compute_multiplier", None)
        clock, booked = self.clock, cat or "uncategorized"
        charged: Dict[int, float] = {}
        for r, dt in zip(rank_list, amounts):
            if mult is not None:
                dt *= mult(r)
            clock[r] += dt
            self._add_category_time(r, cat, dt)
            charged[r] = dt
        if charged:
            total = sum(charged.values())
            if self.metrics is not None and total > 0.0:
                self._counter(
                    ("compute", cat), "vmpi_compute_rank_seconds_total", category=booked
                ).inc(total)
            if self.tracer is not None:
                # the span covers the rank whose clock the charge pushed
                # furthest — the one that can pin a later collective
                lead = max(charged, key=lambda r: (clock[r], -r))
                dt_lead = charged[lead]
                if dt_lead > 0.0:
                    self.tracer.record(
                        f"compute[{booked}]",
                        "compute",
                        float(clock[lead]) - dt_lead,
                        dt_lead,
                        category=cat,
                        ranks=rank_list,
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
        factor = 1.0
        if self.fault_injector is not None:
            factor = self.fault_injector.on_collective(kind, ranks, comm_label)
        ranks, idx = self._group(ranks)
        return self._charge_blocking(
            kind, (ranks,), idx[None], (self.cost_model.n_nodes_of(ranks),),
            self._statement(kind, (ranks,), (nbytes,), (algorithm,), (comm_label,)),
            category, factor,
        )[0]

    def charge_collective_block(
        self,
        kind: str,
        groups: "tuple[tuple[int, ...], ...]",
        nbytes: Sequence[int],
        rounds: int,
        *,
        comm_labels: Sequence[str],
        algorithms: Sequence[Optional[object]],
        category: Optional[str] = None,
        admit: "Optional[tuple[str, str]]" = None,
        ranks: Sequence[int] = (),
        flops: Optional[Sequence[float]] = None,
        compute_category: Optional[str] = None,
    ) -> None:
        """Charge one lockstep statement: ``rounds`` back-to-back
        collectives of ``kind`` on each of ``groups``.

        ``groups`` are ordered, pairwise disjoint and of equal size
        (checked once per distinct family); ``nbytes``, ``comm_labels``
        and ``algorithms`` hold one entry per group, and each group is
        priced on its own; ``rounds`` is an int ``>= 1``
        (:class:`~repro.errors.CollectiveError` otherwise, before any
        clock moves).  The ``rounds x len(groups)`` modeled
        collectives are booked exactly as that many
        :meth:`charge_collective` calls issued round-major, group-minor
        would book them — clocks, waits, category times, events, spans
        and series, bit for bit — and with ``admit = (op, dtype)`` a
        checker admits each row as a blocking collective of that op and
        dtype, as the loop's :meth:`Communicator.allreduce` would.  The
        statement runs in phase ``category`` (default: the current one).

        Given ``flops``, it is issued once per chunk, chunk ``c`` after
        ``ranks`` are charged ``flops[c]`` under ``compute_category`` as
        :meth:`charge_compute` would; checks, conversions, family and
        static half are prepared once.  The injector is asked once per
        statement, through its non-raising ``collective_outlook(groups)``:
        the cost factor, and the first group holding a dead rank.  That
        group's first collective is where the death surfaces, so the
        groups before it are charged their first round and
        ``on_collective`` then raises for it, as it would have in the
        loop.
        """
        groups, idx, n_nodes = self._family(groups)
        per_group = (len(nbytes), len(comm_labels), len(algorithms))
        whole = isinstance(rounds, (int, np.integer)) and rounds >= 1
        if not whole or per_group != (len(groups),) * 3:
            raise CollectiveError(
                f"a block of {len(groups)} groups needs rounds >= 1 and one byte count, label"
                f" and algorithm per group, got rounds={rounds!r} and {per_group}"
            )
        chunks: List[Optional[List[float]]] = [None]
        if flops is not None:
            ranks = self._group(ranks)[0]
            chunks = [self._compute_seconds(ranks, None, fl) for fl in flops]
        static = self._statement(kind, groups, nbytes, algorithms, comm_labels)
        category = self.current_category if category is None else category
        stack = self._category_stack
        for seconds in chunks:
            if seconds is not None:
                self._book_compute(ranks, seconds, compute_category)
            stack.append(category)  # `with self.phase(category)`, without its generator
            try:
                factor, dead = 1.0, None
                if self.fault_injector is not None:
                    factor, dead = self.fault_injector.collective_outlook(groups)
                live = len(groups) if dead is None else dead
                if live:
                    self._charge_blocking(
                        kind, groups[:live], idx[:live], n_nodes, static, category,
                        factor, rounds if dead is None else 1, admit,
                    )
                if dead is not None:
                    if admit is not None and self.checker is not None:
                        p = len(groups[dead])
                        self.checker.lockstep_collective(
                            kind, groups[dead], comm_labels[dead], (nbytes[dead],) * p,
                            op=admit[0], dtypes=(admit[1],) * p,
                        )
                    self.fault_injector.on_collective(kind, groups[dead], comm_labels[dead])
            finally:
                stack.pop()

    def _statement(
        self, kind: str, groups: "Sequence[tuple[int, ...]]", nbytes: Sequence[int],
        algorithms: Sequence[Optional[object]], labels: Sequence[str],
    ) -> "tuple[tuple, ...]":
        """A blocking statement's static half — unscaled prices, ``int``
        byte counts, algorithm names, labels, first ranks — built once
        per statement that names its algorithms (a default may be
        reassigned), and shared by every block it books."""
        key = (kind, tuple(groups), tuple(nbytes), tuple(algorithms), tuple(labels))
        static = self._statements.get(key)
        if static is None:
            price = self.cost_model.collective_cost
            static = (
                tuple(price(kind, g, nb, algorithm=a) for g, nb, a in zip(groups, nbytes, key[3])),
                tuple(int(nb) for nb in key[2]),
                tuple(_algorithm_name(algorithm) for algorithm in key[3]),
                key[4],
                tuple(ranks[0] for ranks in groups),
            )
            if None not in key[3]:
                self._statements[key] = static
        return static

    def _charge_blocking(
        self,
        kind: str,
        groups: "Sequence[tuple[int, ...]]",
        idx: np.ndarray,
        n_nodes: Sequence[int],
        static: "tuple[tuple, ...]",
        category: Optional[str],
        factor: float,
        rounds: int = 1,
        admit: "Optional[tuple[str, str]]" = None,
    ) -> Sequence[float]:
        """The one blocking-charge body; returns each group's cost.

        ``idx`` is the ``(G, P)`` clock index of the disjoint
        ``groups``, ``static`` the statement's :meth:`_statement`; the
        per-group sequences may run past ``G``.  Round 0 synchronises
        each group to its last arrival and books the entry waits; every
        later round finds its group synchronised (wait ``0.0``, last
        arrival its first rank).  Simulated time is kept by *repeated*
        addition — round ``m`` starts at ``t0`` plus ``cost`` added
        ``m`` times, a rank's category time takes ``rounds`` sequential
        adds — because that is what ``rounds`` single collectives do,
        and ``t0 + m * cost`` rounds differently.
        """
        if category is None:
            category = self.current_category
        costs, nbytes, names, labels, first = static
        if factor != 1.0:
            costs = [factor * cost for cost in costs]
        clocks = self.clock[idx]
        if idx.shape[1] == 1:
            # one-rank groups: nobody waits, the only rank arrives last
            t0 = clocks[:, 0]
            wait_s, last_arrival = [0.0] * len(groups), first
        else:
            last = clocks.argmax(axis=1).tolist()
            t0 = clocks.max(axis=1)
            waits = t0[:, None] - clocks
            self.coll_wait_s[idx] += waits
            # a group's total wait — the sum of its own row — is imposed
            # by whoever arrived last
            wait_s = waits.sum(axis=1).tolist()
            last_arrival = [ranks[i] for ranks, i in zip(groups, last)]
            self.imposed_wait_s[last_arrival] += wait_s
        t_starts, t = [], t0.tolist()
        for _ in range(rounds):
            t_starts.append(t)
            t = [t_g + cost for t_g, cost in zip(t, costs)]
        self.clock[idx] = np.asarray(t)[:, None]
        booked = category or "uncategorized"
        for ranks, cost in zip(groups, costs):
            for r in ranks:
                times = self._category_time[r]
                busy = times.get(booked, 0.0)
                for _ in range(rounds):
                    busy += cost
                times[booked] = busy
        self._record_rows(
            CollectiveRows(
                kind, groups, n_nodes, nbytes, names, labels,
                t_starts, costs, category, last_arrival, wait_s,
            ),
            admit,
        )
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

    def _family(
        self, groups: "tuple[tuple[int, ...], ...]"
    ) -> "tuple[tuple[tuple[int, ...], ...], np.ndarray, tuple[int, ...]]":
        """Ordered rank groups, their ``(G, P)`` clock index and their
        node counts; built — and checked to be pairwise disjoint and of
        one size, which is what lets one indexed operation stand for
        ``G`` — once per distinct family."""
        got = self._families.get(groups)
        if got is None:
            key = groups
            groups, indices = zip(*[self._group(ranks) for ranks in groups])
            flat = [r for ranks in groups for r in ranks]
            if len({len(ranks) for ranks in groups}) != 1 or len(set(flat)) != len(flat):
                raise CollectiveError(
                    f"a block of collectives needs disjoint groups of one size, "
                    f"got {groups}"
                )
            idx = np.stack(indices)
            idx.flags.writeable = False
            n_nodes = tuple(self.cost_model.n_nodes_of(ranks) for ranks in groups)
            got = self._families[key] = (groups, idx, n_nodes)
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
        factor = 1.0
        if self.fault_injector is not None:
            factor = self.fault_injector.on_collective(kind, ranks, comm_label)
        ranks, idx = self._group(ranks)
        clocks = self.clock[idx]
        last = int(clocks.argmax())
        # the injector's factor multiplies the memoised cost afterwards,
        # so a slowdown armed mid-run is honoured
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
        self._record_rows(
            CollectiveRows(
                pending.kind, (pending.ranks,),
                (self.cost_model.n_nodes_of(pending.ranks),), (pending.nbytes,),
                (_algorithm_name(pending.algorithm),), (pending.comm_label,),
                ((pending.t_post,),), (cost,), cat, (pending.last_arrival,),
                (sync_s,), float(overlapped.sum()),
            )
        )
        return cost

    def _record_rows(
        self, rows: CollectiveRows, admit: "Optional[tuple[str, str]]" = None
    ) -> None:
        """The one place charged collectives become visible: the rows go
        to the trace (numbered on from the last ``seq``), the span log
        and the metric series.  A checker takes a clean block at once;
        otherwise each row is admitted (with ``admit``), then
        overlap-checked, so a raise at row ``i`` leaves booked what a
        loop of single collectives would — rows ``[0, i)``, and row
        ``i`` too in the trace when the overlap check raised.
        """
        seq0, checker = self._seq, self.checker
        n = len(rows.t_starts) * len(rows.groups)
        traced = booked = n
        try:
            if checker is not None and not checker.lockstep_rows(rows, admit):
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
        """Feed the first ``n`` rows to the metric series once per group,
        creating series in the order a row at a time would: bytes and
        counts grow by their totals (integers, so exactly), waits by
        round 0's — a later round adds ``0.0`` on the group's first rank
        — and the cost histogram all groups share takes the costs in row
        order.
        """
        if not n:
            return
        n_groups = len(rows.groups)
        for g in range(min(n, n_groups)):
            label, last = rows.labels[g], rows.last_arrival[g]
            key = ("collective", rows.kind, label)
            bound = self._series.get(key)
            if bound is None:
                counter = self.metrics.counter
                bound = self._series[key] = (
                    counter("vmpi_collective_bytes_total", kind=rows.kind, comm=label),
                    counter("vmpi_collectives_total", kind=rows.kind),
                    counter("vmpi_coll_wait_seconds_total", comm=label),
                    self.metrics.histogram("vmpi_collective_cost_seconds", kind=rows.kind),
                )
            bytes_total, collectives_total, wait_total, cost_seconds = bound
            count = (n - g + n_groups - 1) // n_groups
            moved = float(rows.nbytes[g]) * count
            assert bytes_total.value + moved <= 2**53, "byte total past exact floats"
            bytes_total.inc(moved)
            collectives_total.inc(count)
            wait_total.inc(rows.wait_s[g])
            self._counter(
                ("imposed", last), "vmpi_imposed_wait_seconds_total", rank=last
            ).inc(rows.wait_s[g])
        for ranks in rows.groups[: max(0, n - n_groups)]:
            self._counter(
                ("imposed", ranks[0]), "vmpi_imposed_wait_seconds_total", rank=ranks[0]
            ).inc(0.0)
        if rows.overlapped_s is not None:
            label = rows.labels[0]
            self._counter(
                ("overlapped", label), "vmpi_coll_overlapped_seconds_total", comm=label
            ).inc(rows.overlapped_s)
        cost_seconds.observe_each(rows.costs[j % n_groups] for j in range(n))

    def _counter(self, key: tuple, name: str, **labels: object):
        """The registry counter ``name{labels}``, looked up once per ``key``."""
        got = self._series.get(key)
        if got is None:
            got = self._series[key] = self.metrics.counter(name, **labels)
        return got

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
        for r in ranks:
            self._add_category_time(r, cat, seconds)
        if self.tracer is not None and seconds > 0.0:
            self.tracer.record(
                f"sync[{cat or 'uncategorized'}]",
                "sync",
                t_start,
                float(seconds),
                category=cat,
                ranks=ranks,
                last_arrival=last,
            )
        if self.metrics is not None and seconds > 0.0:
            self.metrics.counter(
                "vmpi_sync_seconds_total", category=cat or "uncategorized"
            ).inc(float(seconds) * len(ranks))
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
        return {
            c: self.category_time(c, ranks, reduce=reduce) for c in self.categories()
        }
