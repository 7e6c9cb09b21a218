"""A lockstep statement is booked once, as a block of rows.

``VirtualWorld.charge_collective_block`` hands the trace, the span log,
the metric series and the checker one :class:`CollectiveRows` block
instead of ``rounds x G`` records.  These tests hold that block to
``==`` against the same statement made as ``rounds x G`` single
``charge_collective`` calls, round-major — on the whole run and at the
prefixes a refused admission or overlap check leaves booked — and pin
that the two logs build their objects lazily: once, on the first read.
"""

from __future__ import annotations

import collections
import random
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.check.checker import CollectiveChecker
from repro.errors import CollectiveError, ProtocolError
from repro.machine.presets import generic_cluster
from repro.obs import Telemetry
from repro.obs.export import export_spans_jsonl
from repro.obs.span import Span
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.injector import FaultInjector
from repro.vmpi.algorithms import AllreduceAlgorithm, AlltoallAlgorithm
from repro.vmpi.world import VirtualWorld
from repro.vmpi.tracer import CollectiveEvent

_MACHINE = generic_cluster(n_nodes=4, ranks_per_node=4)
#: the nonblocking collective interleaved with the statements, on ranks
#: no drawn family uses
_NB_RANKS = (14, 15)


@st.composite
def _families(draw):
    n_groups = draw(st.integers(1, 4))
    size = draw(st.integers(1, 3))
    members = draw(st.permutations(range(12)))[: n_groups * size]
    kind = draw(st.sampled_from(["allreduce", "alltoall"]))
    algorithms = {"allreduce": AllreduceAlgorithm, "alltoall": AlltoallAlgorithm}[kind]
    return {
        "kind": kind,
        "groups": tuple(
            tuple(members[g * size : (g + 1) * size]) for g in range(n_groups)
        ),
        "nbytes": draw(
            st.lists(
                st.sampled_from([0, 8, 24, 1024, 3 * 2**20 + 1]),
                min_size=n_groups,
                max_size=n_groups,
            )
        ),
        "rounds": draw(st.integers(1, 4)),
        # one shared label makes groups share their byte and wait series
        "labels": ["g"] * n_groups
        if draw(st.booleans())
        else [f"g{g}" for g in range(n_groups)],
        "algorithms": draw(
            st.lists(
                st.sampled_from([None, *algorithms]),
                min_size=n_groups,
                max_size=n_groups,
            )
        ),
        "seed": draw(st.integers(0, 2**16)),
    }


def _admission(family):
    """The ``(op, dtype)`` a checker admits the family's rows with."""
    return ("SUM" if family["kind"] == "allreduce" else "", "float64")


def _block(world, family, admit=None):
    world.charge_collective_block(
        family["kind"],
        family["groups"],
        family["nbytes"],
        family["rounds"],
        comm_labels=family["labels"],
        algorithms=family["algorithms"],
        admit=admit,
    )


def _singles(world, family, admit=None):
    """The statement as single collectives, rounds outer; with
    ``admit``, each first posted rank by rank to the checker."""
    groups = family["groups"]
    for _ in range(family["rounds"]):
        for g, ranks in enumerate(groups):
            if admit is not None:
                ck = world.checker
                for r in ranks:
                    ck.post(
                        r, comm_label=family["labels"][g], comm_ranks=ranks,
                        kind=family["kind"], nbytes=family["nbytes"][g], op=admit[0],
                        dtype=admit[1], site=ck.observed_events,
                    )
            world.charge_collective(
                family["kind"],
                ranks,
                family["nbytes"][g],
                comm_label=family["labels"][g],
                algorithm=family["algorithms"][g],
            )


def _world(*, checker=False, price=None):
    world = VirtualWorld(_MACHINE)
    if price is not None:
        world.cost_model.collective_cost = price
    Telemetry().install(world)
    if checker:
        world.install_checker(CollectiveChecker())
    world.tracer.time_offset = 5.0
    world.tracer.begin("step", "step", 0.0)
    return world


def _skew(world, rng):
    world.charge_compute(
        range(world.n_ranks),
        seconds={r: rng.random() * 1e-3 for r in range(world.n_ranks)},
    )


def _books(world, *, clocks=True) -> dict:
    """Everything a world booked, comparable with ``==``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spans.jsonl"
        export_spans_jsonl(world.tracer.spans, path)
        span_bytes = path.read_bytes()
    books = {
        "trace": [repr(event) for event in world.trace],
        "trace_dicts": [event.to_dict() for event in world.trace],
        "spans": [repr(span) for span in world.tracer.spans],
        "span_bytes": span_bytes,
        "metrics": world.metrics.to_dict(),
        "series": list(world.metrics),
        "seq": world._seq,
        "observed": None if world.checker is None else world.checker.observed_events,
        "checker": None
        if world.checker is None
        else (world.checker._seq, repr(world.checker.completed)),
    }
    if clocks:
        books.update(
            clock=world.clock.tobytes(),
            coll_wait_s=world.coll_wait_s.tobytes(),
            imposed_wait_s=world.imposed_wait_s.tobytes(),
            category_times=[
                world.category_breakdown([r], reduce="sum") for r in range(world.n_ranks)
            ],
        )
    return books


def _two_statements(family, book, price=None) -> dict:
    """Two statements around a nonblocking collective, the ranks
    entering each at unequal clocks."""
    world = _world(price=price)
    rng = random.Random(family["seed"])
    _skew(world, rng)
    pending = world.post_collective("allreduce", _NB_RANKS, 64, comm_label="nb")
    world.charge_compute(_NB_RANKS[:1], seconds=2e-4)
    book(world, family)
    world.complete_collective(pending)
    _skew(world, rng)
    with world.phase("str_comm"):
        book(world, family)
    # a later offset must not move the spans already recorded
    world.tracer.time_offset = 7.0
    world.tracer.end(world.elapsed())
    return _books(world)


@settings(max_examples=80, deadline=None)
@given(family=_families())
def test_a_block_books_what_its_single_collectives_book(family):
    assert _two_statements(family, _block) == _two_statements(family, _singles)


#: costs whose sum depends on the order they are added in
_ORDERED_COSTS = {8: 1e-5, 24: 3e-4}


def _price(kind, ranks, nbytes, algorithm=None):
    return _ORDERED_COSTS.get(nbytes, 1e-4)


def test_the_cost_histogram_is_summed_in_row_order():
    family = {
        "kind": "alltoall",  # its histogram holds the two statements only
        "groups": ((0, 1), (2, 3)),
        "nbytes": [8, 24],
        "rounds": 3,
        "labels": ["g0", "g1"],
        "algorithms": [None, None],
        "seed": 1,
    }
    row_order = group_order = 0.0
    for _ in range(3):
        for cost in _ORDERED_COSTS.values():
            row_order += cost
    for cost in _ORDERED_COSTS.values():
        for _ in range(3):
            group_order += cost
    assert row_order != group_order  # or this case says nothing
    block = _two_statements(family, _block, _price)
    assert block == _two_statements(family, _singles, _price)
    histogram = block["metrics"]["histograms"][-1]
    assert histogram["labels"] == {"kind": "alltoall"} and histogram["count"] == 12


# -- failure prefixes --------------------------------------------------
# A real violation can only meet a statement in its first round: after
# it every label is adopted, no rank is mid-flight and every group starts
# where its previous round ended.  So the failing row is drawn over the
# first round's rows.
def _diagnosis(error):
    return (error.code, str(error), error.seqs, error.ranks, error.comm_labels)


@settings(max_examples=40, deadline=None)
@given(family=_families(), data=st.data())
def test_a_refused_admission_leaves_the_rows_before_it(family, data):
    refused = data.draw(st.integers(0, len(family["groups"]) - 1), label="refused row")
    outcomes = []
    for book in (_block, _singles):
        world = _world(checker=True)
        _skew(world, random.Random(family["seed"]))
        # an unwaited request on one rank of the refused group
        victim = family["groups"][refused][0]
        world.checker.nb_post(
            victim, comm_label="nb", comm_ranks=(victim,), kind="allreduce", nbytes=8
        )
        with pytest.raises(ProtocolError) as caught:
            book(world, family, _admission(family))
        outcomes.append((_diagnosis(caught.value), _books(world, clocks=False)))
    assert outcomes[0] == outcomes[1]
    (code, *_), books = outcomes[0]
    if refused and len(set(family["labels"])) == 1:
        # one label on two groups is a violation of its own, at row 1
        assert code == "membership" and len(books["trace"]) == 1
    else:
        assert code == "inflight-overlap" and len(books["trace"]) == refused


@settings(max_examples=40, deadline=None)
@given(family=_families(), data=st.data())
def test_an_overlap_leaves_the_row_in_the_trace_only(family, data):
    failing = data.draw(st.integers(0, len(family["groups"]) - 1), label="overlapping row")
    outcomes = []
    for book in (_block, _singles):
        world = _world(checker=True)
        _skew(world, random.Random(family["seed"]))
        # the group's ranks are already busy far in the future
        for r in family["groups"][failing]:
            world.checker._last_t[r] = 1e9
        with pytest.raises(ProtocolError) as caught:
            book(world, family)
        assert caught.value.code == "overlap"
        assert caught.value.seqs == (failing + 1,)
        outcomes.append((_diagnosis(caught.value), _books(world, clocks=False)))
    assert outcomes[0] == outcomes[1]
    books = outcomes[0][1]
    assert len(books["trace"]) == failing + 1
    assert len(books["spans"]) == 1 + failing  # the skew's compute span first
    assert books["observed"] == failing + 1


# -- laziness ------------------------------------------------------------
@pytest.fixture
def built(monkeypatch):
    """Counts of ``CollectiveEvent`` / ``Span`` objects constructed."""
    counts = collections.Counter()
    for cls in (CollectiveEvent, Span):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def _statement(world):
    world.charge_collective_block(
        "allreduce",
        ((0, 1), (2, 3)),
        [8, 16],
        3,
        comm_labels=["a", "b"],
        algorithms=[None, None],
    )


def test_len_builds_nothing_and_a_read_builds_once(built):
    world = _world()
    _statement(world)
    assert len(world.trace) == len(world.tracer) == 6
    assert not built
    events, spans = world.trace.events, world.tracer.spans
    assert built == {"CollectiveEvent": 6, "Span": 6}
    assert [e.seq for e in events] == list(range(1, 7))
    assert [s.span_id for s in spans] == list(range(1, 7))
    # a second read returns the very same objects and builds nothing
    assert all(a is b for a, b in zip(world.trace.events, events))
    assert all(a is b for a, b in zip(list(world.trace), events))
    assert all(a is b for a, b in zip(world.tracer.spans, spans))
    assert built == {"CollectiveEvent": 6, "Span": 6}
    assert len(world.trace) == len(world.tracer) == 6


def test_zeroing_the_clocks_does_not_reach_the_unbuilt_rows():
    books = []
    for read_first in (True, False):
        world = _world()
        _skew(world, random.Random(3))
        _statement(world)
        if read_first:
            world.trace.events, world.tracer.spans
        for books_array in (world.clock, world.coll_wait_s, world.imposed_wait_s):
            books_array[:] = 0.0
        books.append(
            ([repr(e) for e in world.trace], [repr(s) for s in world.tracer.spans])
        )
    assert books[0] == books[1]
    assert len(books[0][0]) == 6 and any(e.t_start > 0.0 for e in world.trace)


# -- a malformed statement is refused before a clock moves -------------
def _malformed(**changes):
    statement = {
        "groups": ((0, 1), (2, 3)),
        "nbytes": [8, 8],
        "rounds": 2,
        "comm_labels": ["a", "b"],
        "algorithms": [None, None],
    }
    return {**statement, **changes}


@pytest.mark.parametrize(
    "statement",
    [
        _malformed(groups=((0, 1),), nbytes=[8], comm_labels=["a"], algorithms=[None], rounds=0),
        _malformed(rounds=-1),
        _malformed(rounds=2.0),
        _malformed(nbytes=[8]),
        _malformed(nbytes=[8, 8, 8]),
        _malformed(comm_labels=["a"]),
        _malformed(algorithms=[None]),
    ],
    ids=[
        "zero-rounds",
        "negative-rounds",
        "float-rounds",
        "nbytes-short",
        "nbytes-long",
        "labels-short",
        "algorithms-short",
    ],
)
@pytest.mark.parametrize("guard", ["bare", "checked", "armed"])
def test_a_malformed_statement_moves_no_clock(statement, guard):
    """At the parent a zero-round statement still synchronised its
    group and booked the entry waits, and a per-group sequence shorter
    than the groups rewound the other groups' clocks (rank 2: 1.0 ->
    7e-06), failing only at the first read of the trace."""
    world = _world(checker=guard == "checked")
    if guard == "armed":
        # a crash armed for step 0: asking the injector would kill rank 3
        plan = FaultPlan(specs=(FaultSpec("rank_crash", at_step=0, rank=3),))
        world.install_fault_injector(FaultInjector(world, plan))
    world.charge_compute(0, seconds=1.0)
    world.charge_compute(2, seconds=1.0)
    before = _books(world)
    with pytest.raises(CollectiveError, match="rounds >= 1 and one byte count"):
        world.charge_collective_block("allreduce", **statement)
    assert _books(world) == before
    assert world.clock[:4].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert not world.coll_wait_s.any() and not world.imposed_wait_s.any()
    assert len(world.trace) == 0 and world.trace.events == ()
    if guard == "armed":
        assert not world.fault_injector.dead_ranks
    if guard == "checked":
        assert world.checker.completed == []
