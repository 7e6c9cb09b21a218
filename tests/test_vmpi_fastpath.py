"""The collective fast path prices exactly what the formulas price.

:class:`~repro.vmpi.cost.CommCostModel` memoises the profile of a rank
group and the cost of a ``(kind, ranks, nbytes, algorithm)`` tuple.
These tests hold the memo to ``==`` (never ``approx``) against a fresh
model's first evaluation — which always runs the formula — across
placements, machines, kinds and algorithms, and pin the two ways a memo
could go stale: a default algorithm reassigned after construction and
a fault-injector slowdown arming between two identical collectives.
"""

from __future__ import annotations

import collections
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.cgyro.presets import small_test
from repro.check.checker import KNOWN_KINDS, CollectiveChecker
from repro.errors import CollectiveError, RankFailure
from repro.machine.placement import BlockPlacement, Placement, RoundRobinPlacement
from repro.machine.presets import generic_cluster
from repro.machine.topology import DragonflyTopology
from repro.obs import Telemetry
from repro.obs.export import export_spans_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.injector import FaultInjector
from repro.vmpi.algorithms import AllreduceAlgorithm, AlltoallAlgorithm
from repro.vmpi.communicator import Communicator, allreduce_rounds
from repro.vmpi.cost import CommCostModel
from repro.vmpi.datatypes import RankStacked
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble

N_NODES, RANKS_PER_NODE = 4, 4
N_RANKS = N_NODES * RANKS_PER_NODE


class _ReversedPlacement(Placement):
    """Node-major order reversed: rank 0 on the last node."""

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return N_NODES - 1 - rank // RANKS_PER_NODE


_HOMOGENEOUS = generic_cluster(N_NODES, ranks_per_node=RANKS_PER_NODE)
MACHINES = {
    "homogeneous": _HOMOGENEOUS,
    "hetero-bandwidth": replace(_HOMOGENEOUS, node_bandwidth=(1.0, 0.5, 1.0, 0.25)),
    "dragonfly": replace(_HOMOGENEOUS, topology=DragonflyTopology(nodes_per_group=2)),
}
PLACEMENTS = {
    "block": lambda machine: BlockPlacement(machine, N_RANKS),
    "round-robin": lambda machine: RoundRobinPlacement(machine, N_RANKS),
    "reversed": lambda machine: _ReversedPlacement(machine, N_RANKS),
}
ALGORITHMS = {
    "allreduce": (None,) + tuple(AllreduceAlgorithm),
    "alltoall": (None,) + tuple(AlltoallAlgorithm),
}
KINDS = ("allreduce", "alltoall")

#: single-rank, within-node and node-spanning groups, in any order
_groups = st.lists(
    st.integers(min_value=0, max_value=N_RANKS - 1),
    min_size=1,
    max_size=N_RANKS,
    unique=True,
)


@st.composite
def _calls(draw):
    kind = draw(st.sampled_from(KINDS))
    ranks = draw(_groups)
    nbytes = draw(st.sampled_from((0, 8, 1024, 16 * 1024, 3 * 2**20 + 1)))
    algorithm = draw(st.sampled_from(ALGORITHMS[kind]))
    return kind, ranks, nbytes, algorithm


def _model(machine_name: str, placement_name: str) -> CommCostModel:
    machine = MACHINES[machine_name]
    return CommCostModel(machine, PLACEMENTS[placement_name](machine))


@pytest.mark.parametrize("placement_name", sorted(PLACEMENTS))
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@settings(max_examples=40, deadline=None)
@given(calls=st.lists(_calls(), min_size=1, max_size=12))
def test_memoised_costs_equal_a_fresh_models_first_evaluation(
    machine_name, placement_name, calls
):
    warm = _model(machine_name, placement_name)
    for kind, ranks, nbytes, algorithm in calls + calls:  # first, then repeated
        fresh = _model(machine_name, placement_name)
        assert warm.collective_cost(
            kind, ranks, nbytes, algorithm=algorithm
        ) == fresh.collective_cost(kind, ranks, nbytes, algorithm=algorithm)
        assert warm.effective_link(ranks) == _model(
            machine_name, placement_name
        ).effective_link(ranks)
        assert warm.n_nodes_of(ranks) == _model(
            machine_name, placement_name
        ).n_nodes_of(ranks)


@given(ranks=_groups)
def test_a_group_is_profiled_once_whatever_sequence_type_names_it(ranks):
    model = _model("hetero-bandwidth", "round-robin")
    link = model.effective_link(ranks)
    assert model.effective_link(tuple(ranks)) is link
    assert model.effective_link(np.asarray(ranks)) is link
    assert model.n_nodes_of(iter(ranks)) == len(
        {model.placement.node_of(r) for r in ranks}
    )
    assert len(model._groups) == 1


@pytest.mark.parametrize("kind", sorted(KNOWN_KINDS))
def test_every_known_kind_has_a_formula(kind):
    """What the checker admits, the cost model prices: a kind added to
    ``KNOWN_KINDS`` without a formula fails here."""
    model = _model("homogeneous", "block")
    assert model.collective_cost(kind, range(8), 1024) > 0.0
    assert model.select_algorithm(kind) in ALGORITHMS[kind]


def test_empty_group_keeps_its_historical_answers():
    model = _model("homogeneous", "block")
    assert model.n_nodes_of(()) == 0
    with pytest.raises(CollectiveError, match="empty rank group"):
        model.effective_link(())
    assert model._groups == {}


@pytest.mark.parametrize(
    "kind, attr, flipped",
    [
        ("allreduce", "default_allreduce", AllreduceAlgorithm.RECURSIVE_DOUBLING),
        ("alltoall", "default_alltoall", AlltoallAlgorithm.BRUCK),
    ],
)
def test_default_algorithm_flipped_after_construction_is_not_served_stale(
    kind, attr, flipped
):
    """campaign/runner.py and plan/planner.py assign the defaults after
    the world is built: the memo key must carry the algorithm used."""
    machine = MACHINES["homogeneous"]
    ranks, nbytes = tuple(range(8)), 64 * 1024
    model = CommCostModel(machine, BlockPlacement(machine, N_RANKS))
    before = model.collective_cost(kind, ranks, nbytes)
    setattr(model, attr, flipped)
    after = model.collective_cost(kind, ranks, nbytes)

    built_with = CommCostModel(
        machine, BlockPlacement(machine, N_RANKS), **{attr: flipped}
    )
    assert after == built_with.collective_cost(kind, ranks, nbytes)
    assert after != before
    # and the explicit spelling shares the entry of the default one
    assert model.collective_cost(kind, ranks, nbytes, algorithm=flipped) == after
    assert len(model._costs) == 2


def test_slowdown_arming_between_identical_collectives_multiplies_the_memo():
    world = VirtualWorld(MACHINES["homogeneous"])
    injector = FaultInjector(
        world, FaultPlan(specs=(FaultSpec("link_slowdown", at_step=1, factor=3.0),))
    )
    world.install_fault_injector(injector)
    comm = world.comm_world()
    values = {r: np.ones(4) for r in comm.ranks}

    injector.begin_step(0)
    comm.allreduce(values)
    injector.begin_step(1)
    comm.allreduce(values)

    first, second = world.trace.events
    assert second.cost_s == 3.0 * first.cost_s
    assert len(world.cost_model._costs) == 1


# ----------------------------------------------------------------------
# deterministic count gate (ROADMAP 1(c)): per-collective work must not
# include a registry lookup or a placement walk
# ----------------------------------------------------------------------
#: sha256 of ``metrics.to_dict()`` / the span JSONL of the interval below,
#: recorded at the commit before the fast path (310be4c)
_PINNED = {
    "off": (
        "39ebb2bac995a02e2d39b164b2912ec1bc8fac21203d66eb4f980619fbe98ddf",
        "95c882edb71b73d47123abe2056ad8c53ae8b75b9a245cf00a209f54ea13312a",
    ),
    "full": (
        "b28d1f934032c53b1d9c55941c394d93a94d1a179bfd12134f2f8c05b1d35c5b",
        "e6feb6f5b9045f990c16e5c7604b215e7e321cdabb89e30c3e03afefe94962ad",
    ),
}


@pytest.mark.parametrize("overlap", sorted(_PINNED))
def test_lookups_scale_with_series_and_groups_not_with_collectives(
    monkeypatch, tmp_path, overlap
):
    calls = collections.Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    count(MetricsRegistry, "counter")
    count(MetricsRegistry, "histogram")
    count(Placement, "ranks_per_node_of")

    world = VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4))
    tele = Telemetry()
    tele.install(world)
    inputs = [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(2)
    ]
    XgyroEnsemble(world, inputs, overlap=overlap).run_report_interval()

    snapshot = tele.metrics.to_dict()
    n_series = len(snapshot["counters"]) + len(snapshot["histograms"])
    groups = {event.ranks for event in world.trace}
    assert len(world.trace) > 10 * len(groups)  # or the bounds below say nothing
    assert calls["ranks_per_node_of"] == len(groups)
    assert calls["counter"] + calls["histogram"] <= 2 * n_series < len(world.trace)

    spans_path = tmp_path / "spans.jsonl"
    export_spans_jsonl(tele.tracer.spans, spans_path)
    assert (
        hashlib.sha256(json.dumps(snapshot, sort_keys=True).encode()).hexdigest(),
        hashlib.sha256(spans_path.read_bytes()).hexdigest(),
    ) == _PINNED[overlap]


# ----------------------------------------------------------------------
# a lockstep statement books what the loop of single collectives books
# ----------------------------------------------------------------------
_GOLDEN_BOOKS = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "world_books.json").read_text()
)


@pytest.mark.parametrize("name", sorted(_GOLDEN_BOOKS))
def test_world_books_recorded_at_the_parent(name, golden_generator):
    """Clocks, waits, category times, every trace event, span, metric
    series and checker post of the solver-state cases (and one slowed
    run) reproduce the digests written while the field solve was still
    a double loop of ``Communicator.allreduce``."""
    assert sorted(golden_generator.WORLD_BOOKS_CASES) == sorted(_GOLDEN_BOOKS)
    assert golden_generator.WORLD_BOOKS_CASES[name]() == _GOLDEN_BOOKS[name]


_BLOCK_MACHINE = generic_cluster(n_nodes=4, ranks_per_node=16)


def _books(world) -> dict:
    """Everything a world booked, comparable with ``==``."""
    return {
        "clock": world.clock.tobytes(),
        "coll_wait_s": world.coll_wait_s.tobytes(),
        "imposed_wait_s": world.imposed_wait_s.tobytes(),
        "category_times": [
            world.category_breakdown([r], reduce="sum") for r in range(world.n_ranks)
        ],
        "trace": [repr(event) for event in world.trace],
        "spans": None
        if world.tracer is None
        else [json.dumps(s.to_dict(), sort_keys=True) for s in world.tracer.spans],
        "metrics": None if world.metrics is None else world.metrics.to_dict(),
        "checker": None if world.checker is None else list(world.checker.completed),
    }


def _instrumented_world(*, telemetry, checker, plan=None, allreduce=AllreduceAlgorithm.RING):
    world = VirtualWorld(_BLOCK_MACHINE)
    # how an autotuned plan pins its algorithm (CampaignRunner._dispatch)
    world.cost_model.default_allreduce = allreduce
    if telemetry:
        Telemetry().install(world)
    if checker:
        world.install_checker(CollectiveChecker())
    if plan is not None:
        world.install_fault_injector(FaultInjector(world, plan))
    return world


def _looped(comms, stack, columns, *, group_major=False):
    """The double loop a block stands for: one ``Communicator.allreduce``
    per (round, group), rounds outer — or, as a negative control,
    groups outer."""
    out = np.zeros(stack.shape[1:], dtype=stack.dtype)
    rounds = range(stack.shape[1])
    order = (
        [(m, g) for g in range(len(comms)) for m in rounds]
        if group_major
        else [(m, g) for m in rounds for g in range(len(comms))]
    )
    for m, g in order:
        comm, window = comms[g], columns[g]
        summed = comm.allreduce(RankStacked(comm.ranks, stack[:, m, ..., window]))
        out[m, ..., window] = summed[comm.ranks[0]]
    return out


@st.composite
def _blocks(draw):
    n_groups = draw(st.integers(1, 4))
    size = draw(st.integers(1, 16))
    if draw(st.booleans()):
        # consecutive ranks: a group of up to 16 can sit inside one node
        first = draw(st.integers(0, _BLOCK_MACHINE.n_ranks - n_groups * size))
        members = list(range(first, first + n_groups * size))
    else:
        members = draw(
            st.lists(
                st.integers(0, _BLOCK_MACHINE.n_ranks - 1),
                min_size=n_groups * size,
                max_size=n_groups * size,
                unique=True,
            )
        )
    groups = [members[g * size : (g + 1) * size] for g in range(n_groups)]
    widths = draw(st.lists(st.integers(1, 3), min_size=n_groups, max_size=n_groups))
    edges = np.cumsum([0] + widths)
    columns = [slice(int(a), int(b)) for a, b in zip(edges, edges[1:])]
    return {
        "groups": groups,
        "columns": columns,
        # more than one element per (round, group) window: see the
        # one-element caveat in ``allreduce_rounds``
        "shape": (size, draw(st.integers(1, 4)), draw(st.integers(2, 3)), int(edges[-1])),
        "dtype": draw(st.sampled_from([np.float64, np.complex128])),
        "seed": draw(st.integers(0, 2**16)),
        "telemetry": draw(st.booleans()),
        "checker": draw(st.booleans()),
        "slowed": draw(st.booleans()),
        "allreduce": draw(st.sampled_from(list(AllreduceAlgorithm))),
        "phase": draw(st.sampled_from(["", "str_comm"])),
    }


def _run_statements(block, issue):
    """Two statements of ``block`` on a fresh world, the ranks entering
    each at unequal clocks; returns the data and the books."""
    plan = None
    if block["slowed"]:
        plan = FaultPlan(specs=(FaultSpec("link_slowdown", at_step=0, factor=2.5),))
    world = _instrumented_world(
        telemetry=block["telemetry"],
        checker=block["checker"],
        plan=plan,
        allreduce=block["allreduce"],
    )
    comms = [
        Communicator(world, ranks, label=f"g{g}")
        for g, ranks in enumerate(block["groups"])
    ]
    rng = np.random.default_rng(block["seed"])
    data = []
    for _ in range(2):
        stack = rng.normal(size=block["shape"]).astype(block["dtype"])
        if stack.dtype.kind == "c":
            stack += 1j * rng.normal(size=block["shape"])
        skew = rng.random(world.n_ranks) * 1e-3
        world.charge_compute(
            range(world.n_ranks), seconds=dict(enumerate(skew.tolist()))
        )
        with world.phase(block["phase"]):
            data.append(issue(comms, stack, block["columns"]).tobytes())
    return data, _books(world)


@settings(max_examples=60, deadline=None)
@given(block=_blocks())
def test_a_block_books_what_the_double_loop_books(block):
    assert _run_statements(block, allreduce_rounds) == _run_statements(block, _looped)


def test_a_block_result_is_one_read_only_array_and_the_operand_untouched():
    world = VirtualWorld(_BLOCK_MACHINE)
    comms = [Communicator(world, r, label=f"g{g}") for g, r in enumerate([[0, 1], [2, 3]])]
    stack = np.random.default_rng(3).normal(size=(2, 3, 2, 5))
    before = stack.copy()
    out = allreduce_rounds(comms, stack, [slice(0, 2), slice(2, 5)])
    assert out.shape == (3, 2, 5) and not out.flags.writeable
    assert np.array_equal(stack, before) and np.array_equal(out, stack[0] + stack[1])
    assert [ev.nbytes for ev in world.trace] == [2 * 2 * 8, 2 * 3 * 8] * 3
    assert [ev.seq for ev in world.trace] == list(range(1, 7))


# -- the fault path ----------------------------------------------------
_NODE_GROUPS = [list(range(16 * g, 16 * g + 4)) for g in range(4)]  # one per node


@pytest.mark.parametrize(
    "spec",
    [
        # the victim sits in group 2: groups 0 and 1 get their first round
        FaultSpec("rank_crash", at_step=0, rank=33),
        # a whole group dies at once: the rest of the job pays the timeout
        FaultSpec("node_loss", at_step=0, node=2),
        # gated on the phase the block runs in
        FaultSpec("rank_crash", at_step=0, rank=49, phase="str_comm"),
        # the first group is hit: nothing is charged before the failure
        FaultSpec("node_loss", at_step=0, node=0),
    ],
    ids=["crash-in-group-2", "node-loss-kills-group-2", "phase-gated", "group-0"],
)
def test_a_death_inside_a_block_surfaces_where_the_loop_finds_it(spec):
    outcomes = []
    for issue in (allreduce_rounds, _looped):
        world = _instrumented_world(
            telemetry=True, checker=True, plan=FaultPlan(specs=(spec,))
        )
        comms = [
            Communicator(world, r, label=f"g{g}") for g, r in enumerate(_NODE_GROUPS)
        ]
        stack = np.ones((4, 3, 2, 8))
        columns = [slice(2 * g, 2 * g + 2) for g in range(4)]
        world.charge_compute(
            range(world.n_ranks),
            seconds={r: 1e-4 * (r % 7) for r in range(world.n_ranks)},
        )
        with world.phase("str_comm"), pytest.raises(RankFailure) as caught:
            issue(comms, stack, columns)
        failure = caught.value
        outcomes.append(
            (
                str(failure),
                failure.failed_ranks,
                failure.failed_nodes,
                failure.step,
                failure.detected_at_s,
                failure.detection_timeout_s,
                failure.comm_label,
                failure.kind,
                _books(world),
            )
        )
    assert outcomes[0] == outcomes[1]
    victim_group = outcomes[0][6]
    assert len(outcomes[0][-1]["trace"]) == int(victim_group[1:])


# -- negative controls: each shows the property above can fail ----------
def _block_spans(issue, **kwargs):
    world = _instrumented_world(telemetry=True, checker=False)
    comms = [Communicator(world, r, label=f"g{g}") for g, r in enumerate(_NODE_GROUPS)]
    columns = [slice(2 * g, 2 * g + 2) for g in range(4)]
    issue(comms, np.ones((4, 3, 2, 8)), columns, **kwargs)
    return _books(world)["spans"]


def test_records_emitted_group_major_would_change_the_span_log():
    block = _block_spans(allreduce_rounds)
    assert block == _block_spans(_looped)
    assert block != _block_spans(_looped, group_major=True)
    assert sorted(block, key=lambda s: json.loads(s)["name"]) != block


def test_rounds_are_priced_by_repeated_addition_not_by_multiplication(monkeypatch):
    """``0.7 + 0.2 + 0.2`` is not ``0.7 + 2 * 0.2``: a block that priced
    round ``m`` as ``t0 + m * cost`` would move the third event and the
    clocks by one ulp against the loop."""
    t0, cost, rounds = 0.7, 0.2, 3
    assert t0 + cost + cost != t0 + 2 * cost and t0 + cost + cost + cost != t0 + 3 * cost
    ends = {}
    for issue in (allreduce_rounds, _looped):
        world = VirtualWorld(_BLOCK_MACHINE)
        monkeypatch.setattr(
            world.cost_model, "collective_cost", lambda *args, **kwargs: cost
        )
        comm = Communicator(world, [0, 1], label="g")
        world.charge_compute(comm.ranks, seconds=t0)
        issue([comm], np.ones((2, rounds, 2, 1)), [slice(0, 1)])
        assert [ev.t_start for ev in world.trace] == [t0, t0 + cost, t0 + cost + cost]
        ends[issue] = world.clock[:2].tolist()
        # the compute charge, then one add per round
        assert world.category_time("uncategorized", [0]) == t0 + cost + cost + cost
    assert ends[allreduce_rounds] == ends[_looped] == [t0 + cost + cost + cost] * 2


@pytest.mark.parametrize("checker", [False, True], ids=["bare", "checked"])
@pytest.mark.parametrize(
    "groups, rows, match",
    [
        ([[0, 1, 2], [3, 4, 5]], 2, "does not stack the 3 ranks"),
        ([[0, 1, 2], [2, 3, 4]], 3, "disjoint groups"),
        ([[0, 1, 2], [3, 4]], 3, "groups of one size"),
    ],
    ids=["a-row-too-few", "overlapping-groups", "unequal-sizes"],
)
def test_a_malformed_block_is_refused_before_anything_is_booked(
    groups, rows, match, checker
):
    world = _instrumented_world(telemetry=False, checker=checker)
    comms = [Communicator(world, r, label=f"g{g}") for g, r in enumerate(groups)]
    columns = [slice(0, 1), slice(1, 2)]
    with pytest.raises(CollectiveError, match=match):
        allreduce_rounds(comms, np.ones((rows, 2, 2, 2)), columns)
    with pytest.raises(CollectiveError, match="one column window per communicator"):
        allreduce_rounds(comms, np.ones((rows, 2, 2, 2)), columns[:1])
    assert not world.clock.any() and len(world.trace) == 0
    if checker:
        assert world.checker.completed == []
