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

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.cgyro.presets import small_test
from repro.errors import CollectiveError
from repro.machine import (
    BlockPlacement,
    DragonflyTopology,
    ExplicitPlacement,
    Placement,
    RoundRobinPlacement,
    generic_cluster,
)
from repro.obs import MetricsRegistry, Telemetry, export_spans_jsonl
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.vmpi import (
    AllreduceAlgorithm,
    AlltoallAlgorithm,
    CommCostModel,
    VirtualWorld,
)
from repro.xgyro import XgyroEnsemble

N_NODES, RANKS_PER_NODE = 4, 4
N_RANKS = N_NODES * RANKS_PER_NODE

_HOMOGENEOUS = generic_cluster(N_NODES, ranks_per_node=RANKS_PER_NODE)
MACHINES = {
    "homogeneous": _HOMOGENEOUS,
    "hetero-bandwidth": replace(_HOMOGENEOUS, node_bandwidth=(1.0, 0.5, 1.0, 0.25)),
    "dragonfly": replace(_HOMOGENEOUS, topology=DragonflyTopology(nodes_per_group=2)),
}
PLACEMENTS = {
    "block": lambda machine: BlockPlacement(machine, N_RANKS),
    "round-robin": lambda machine: RoundRobinPlacement(machine, N_RANKS),
    # node-major order reversed: rank 0 on the last node
    "explicit": lambda machine: ExplicitPlacement(
        machine, [N_NODES - 1 - r // RANKS_PER_NODE for r in range(N_RANKS)]
    ),
}
ALGORITHMS = {
    "allreduce": (None,) + tuple(AllreduceAlgorithm),
    "alltoall": (None,) + tuple(AlltoallAlgorithm),
}
KINDS = (
    "allreduce",
    "alltoall",
    "allgather",
    "bcast",
    "reduce",
    "gather",
    "scatter",
    "barrier",
    "sendrecv",
)

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
    algorithm = draw(st.sampled_from(ALGORITHMS.get(kind, (None,))))
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
