"""One call per blocking field solve books what the per-chunk loop booked.

The blocking field solve issues all its chunks as one
:func:`repro.vmpi.communicator.allreduce_rounds` call over the chunk axis of its
``(P1, C, n_mom, nc, nt)`` partials; the world books chunk ``c`` as its
moment compute charge followed by that chunk's ``n_mom`` AllReduce
rounds.  These tests run one scenario twice — as shipped, and with the
field solve replaced by a test-local copy of the loop it replaced (one
``charge_compute`` and one ``allreduce_rounds`` statement per chunk) —
and hold everything to ``==``: the physics, every trace event, the span
log (ids, parents, order), the metrics snapshot, category times, entry
and imposed waits, and the checker's posts and summary.  The scenarios
cover telemetry and checker on, armed slowdowns (compute and link, one
of each gated on the comm phase), a heterogeneous ``node_speed``
machine, a shorter tail chunk, the ``diag`` categories, and a rank death
that surfaces at a chunk after the first.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.presets import small_test
from repro.check.checker import CollectiveChecker
from repro.errors import CollectiveError, ProtocolError, RankFailure, VmpiError
from repro.machine.presets import generic_cluster, single_node
from repro.obs import Telemetry
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.injector import FaultInjector
from repro.vmpi.communicator import Communicator, allreduce_rounds
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble


def _per_chunk_solve(
    self, state, *, comm_category="str_comm", compute_category="str_compute"
):
    """The blocking field solve as it was issued before the chunk axis:
    per chunk, a compute charge and then one statement."""
    d, dec, kc = self.dims, self.decomp, self.costs
    n_mom = kc.n_moments
    acc = np.zeros((n_mom, d.nc, d.nt), dtype=np.complex128)
    partials = np.empty((dec.n_proc_1, len(kc.chunks), n_mom, d.nc, d.nt), complex)
    for i1, chunks, iv in self._moment_calls:
        self.fields.partial_moments(
            state[:, iv, :], self._all_iv[iv], self._all_nt, out=partials[i1, chunks]
        )
    for partial, moment_flops in zip(partials.swapaxes(0, 1), kc.chunk_moment_flops):
        self.world.charge_compute(self.ranks, flops=moment_flops, category=compute_category)
        with self.world.phase(comm_category):
            acc += allreduce_rounds(self._comm1_groups, partial, self._nt_windows)
    fields = self.fields.assemble(acc, self._all_nt)
    self.world.charge_compute(self.ranks, flops=kc.field_solve_flops, category=compute_category)
    return fields


class _DiesAtStatement(FaultInjector):
    """Kills ``rank`` when the ``at``-th blocking statement asks for its
    outlook — a death that no spec can place between two chunks."""

    def __init__(self, world, rank, at):
        super().__init__(world, FaultPlan(specs=()))
        self.rank, self.at, self.asked = rank, at, 0

    def collective_outlook(self, groups):
        self.asked += 1
        if self.asked == self.at:
            self.dead_ranks.add(self.rank)
            self.dead_nodes.add(self.world.placement.node_of(self.rank))
        return super().collective_outlook(groups)


def _instrument(world, injector=None):
    Telemetry().install(world)
    world.install_checker(CollectiveChecker())
    if injector is not None:
        world.install_fault_injector(injector)
    return world


def _ensemble(machine=None, injector=None):
    """Nonlinear k = 2 on 16 ranks: each member is P1 = 2 x P2 = 4,
    two chunks per field solve; one report interval runs the
    diagnostics' field solve under the ``diag`` categories."""
    world = VirtualWorld(machine or generic_cluster(n_nodes=4, ranks_per_node=4))
    if callable(injector):
        injector = injector(world)
    _instrument(world, injector)
    inputs = [
        small_test(name=f"m{i}", nonlinear=True, dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(2)
    ]
    ens = XgyroEnsemble(world, inputs)
    return world, [m for m in ens.members], ens.run_report_interval


def _tail_chunk():
    """nv = 40 over P1 = 4 columns: chunks of 4, 4 and 2."""
    world = _instrument(VirtualWorld(single_node(ranks=8)))
    sim = CgyroSimulation(world, range(8), small_test(n_energy=5, n_toroidal=2))
    assert [len(c) for c in sim.costs.chunks] == [4, 4, 2]
    return world, [sim], sim.run_report_interval


def _slowed(world):
    return FaultInjector(
        world,
        FaultPlan(
            specs=(
                FaultSpec("slowdown", at_step=0, rank=5, factor=3.0),
                # gated on the comm phase: moment compute must not see it
                FaultSpec("slowdown", at_step=0, rank=9, factor=7.0, phase="str_comm"),
                FaultSpec("link_slowdown", at_step=0, factor=2.5, phase="str_comm"),
            )
        ),
    )


_HETERO = replace(
    generic_cluster(n_nodes=4, ranks_per_node=4), node_speed=(1.0, 0.5, 2.0, 0.75)
)

SCENARIOS = {
    "instrumented": lambda: _ensemble(),
    "slowed": lambda: _ensemble(injector=_slowed),
    "node-speed": lambda: _ensemble(machine=_HETERO),
    "tail-chunk": _tail_chunk,
    # rank 6 sits in member 0's comm_1 group 3; statement 4 is the
    # second chunk of a field solve
    "death-at-chunk-1": lambda: _ensemble(
        injector=lambda world: _DiesAtStatement(world, rank=6, at=4)
    ),
}


def _books(world, sims, failure) -> dict:
    checker = world.checker
    return {
        "physics": [sim.h_global.tobytes() for sim in sims],
        "failure": None
        if failure is None
        else (
            str(failure), failure.failed_ranks, failure.failed_nodes, failure.step,
            failure.detected_at_s, failure.comm_label, failure.kind,
        ),
        "clock": world.clock.tobytes(),
        "coll_wait_s": world.coll_wait_s.tobytes(),
        "imposed_wait_s": world.imposed_wait_s.tobytes(),
        "category_times": [
            world.category_breakdown([r], reduce="sum") for r in range(world.n_ranks)
        ],
        "trace": [repr(event) for event in world.trace],
        "spans": [json.dumps(s.to_dict(), sort_keys=True) for s in world.tracer.spans],
        "metrics": world.metrics.to_dict(),
        "checker_posts": repr(checker.completed),
    }


def _run(name, monkeypatch, *, per_chunk):
    with monkeypatch.context() as patched:
        if per_chunk:
            patched.setattr(CgyroSimulation, "_solve_fields", _per_chunk_solve)
        world, sims, run = SCENARIOS[name]()
        failure = None
        try:
            run()
        except RankFailure as caught:
            failure = caught
        return _books(world, sims, failure)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_call_books_what_the_per_chunk_loop_booked(name, monkeypatch):
    got = _run(name, monkeypatch, per_chunk=False)
    want = _run(name, monkeypatch, per_chunk=True)
    assert got == want
    # each scenario exercised what it is named for
    assert len(got["trace"]) > 0 and len(got["spans"]) > 0
    assert (got["failure"] is not None) == (name == "death-at-chunk-1")
    if got["failure"] is None:
        assert any("diag" in times for times in got["category_times"])


def test_the_death_surfaces_after_the_first_chunk_with_its_prefix_booked(monkeypatch):
    books = _run("death-at-chunk-1", monkeypatch, per_chunk=False)
    assert "m0.comm1.g3" in books["failure"][0]  # rank 6's group
    world, sims, run = SCENARIOS["death-at-chunk-1"]()
    with pytest.raises(RankFailure):
        run()
    asked, n_mom = world.fault_injector.asked, sims[0].costs.n_moments
    assert asked >= 4 and (asked - 1) % len(sims[0].costs.chunks) == 1
    # every earlier statement booked all its rounds; the failing one, its
    # chunk's compute charge and one round on the three groups before g3
    blocking = [ev for ev in world.trace if ev.kind == "allreduce"]
    assert len(blocking) == (asked - 1) * n_mom * 4 + 3
    assert [ev.comm_label[-2:] for ev in blocking[-3:]] == ["g0", "g1", "g2"]


# -- the chunked operand is checked before anything is booked ----------
def _chunk_world():
    world = _instrument(VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4)))
    comms = [Communicator(world, r, label=f"g{g}") for g, r in enumerate([[0, 1], [2, 3]])]
    return world, comms


@pytest.mark.parametrize(
    "shape, flops, error, match",
    [
        ((2, 3, 2, 4), [1.0, 1.0], CollectiveError, "2 chunks"),
        ((2, 0, 2, 4), [], CollectiveError, "0 chunks"),
        ((2, 2, 4), [1.0, 1.0], CollectiveError, "does not stack"),
        ((2, 2, 2, 4), [1.0, -1.0], VmpiError, "negative or not finite"),
        ((2, 2, 2, 4), [1.0, float("nan")], VmpiError, "negative or not finite"),
    ],
    ids=["chunk-count", "no-chunks", "no-rounds-axis", "negative-flops", "nan-flops"],
)
def test_a_malformed_chunked_call_books_nothing(shape, flops, error, match):
    world, comms = _chunk_world()
    with pytest.raises(error, match=match):
        allreduce_rounds(
            comms, np.ones(shape), [slice(0, 2), slice(2, 4)], ranks=range(4), flops=flops
        )
    assert not world.clock.any() and len(world.trace) == 0 and len(world.tracer) == 0
    assert world.checker.completed == [] and world.category_breakdown([0]) == {}


def test_the_chunk_axis_reduces_once_and_returns_every_chunk():
    world, comms = _chunk_world()
    stack = np.random.default_rng(5).normal(size=(2, 3, 2, 4))
    out = allreduce_rounds(
        comms, stack, [slice(0, 2), slice(2, 4)], ranks=range(4), flops=[1e6, 2e6, 3e6],
        compute_category="c", category="m",
    )
    assert out.shape == (3, 2, 4) and not out.flags.writeable
    assert np.array_equal(out, stack[0] + stack[1])
    # per chunk: one compute span, then 2 rounds x 2 groups
    kinds = [json.loads(s)["kind"] for s in _books(world, [], None)["spans"]]
    assert kinds == (["compute"] + ["collective"] * 4) * 3
    assert {ev.category for ev in world.trace} == {"m"}


# -- more shapes: what serve, steps and a flickering link book -----------
class _Flickers(FaultInjector):
    """Doubles every third outlook's link factor: the factor changes
    between two chunks of one field solve."""

    def __init__(self, world):
        super().__init__(world, FaultPlan(specs=()))
        self.asked = 0

    def collective_outlook(self, groups):
        self.asked += 1
        factor, dead = super().collective_outlook(groups)
        return factor * (2.0 if self.asked % 3 == 0 else 1.0), dead


def _serve_shape():
    """Serve's: two linear members of 4 ranks each (P1 = 1, so every
    statement runs on one-rank groups), an injector with no specs,
    telemetry on, no checker."""
    world = VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4))
    Telemetry().install(world)
    world.install_fault_injector(FaultInjector(world, FaultPlan(specs=())))
    inputs = [small_test(name=f"m{i}", dlntdr=(2.0 + i, 2.0 + i)) for i in range(2)]
    ens = XgyroEnsemble(world, inputs)
    assert {len(c.ranks) for m in ens.members for c in m.comm1.values()} == {1}
    return world, list(ens.members), ens.run_report_interval


def _bare_ensemble(injector=None):
    """Steps' instruments: no telemetry, no checker."""
    world = VirtualWorld(generic_cluster(n_nodes=4, ranks_per_node=4))
    if injector is not None:
        world.install_fault_injector(injector(world))
    inputs = [
        small_test(name=f"m{i}", nonlinear=True, dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(2)
    ]
    ens = XgyroEnsemble(world, inputs)
    return world, list(ens.members), ens.run_report_interval


def _unclean():
    """A rank of comm_1 group 1 is mid-flight in an unwaited request, so
    the checker refuses the solve's block whole: it is replayed row by
    row and raises at round 0 of chunk 0 on group 1."""
    world = _instrument(VirtualWorld(single_node(ranks=8)))
    sim = CgyroSimulation(world, range(8), small_test())
    victim = sim._comm1_groups[1].ranks[0]
    world.checker.nb_post(victim, comm_label="nb", comm_ranks=(victim,), kind="allreduce", nbytes=8)
    return world, [sim], lambda: sim._solve_fields(sim.h_global)


MORE_SCENARIOS = {
    "serve-shape": _serve_shape,
    "steps-shape": _bare_ensemble,
    "link-factor-flickers": lambda: _ensemble(injector=_Flickers),
    "steps-shape-flickers": lambda: _bare_ensemble(injector=_Flickers),
    "unclean-chunk-0": _unclean,
}


def _all_books(world, sims, failure) -> dict:
    """What :func:`_books` holds, for any instruments, plus the metric
    series in creation order and the injector's outlook count."""
    tracer, metrics, checker = world.tracer, world.metrics, world.checker
    return {
        "physics": [sim.h_global.tobytes() for sim in sims],
        "failure": None if failure is None else (type(failure).__name__, str(failure)),
        "clock": world.clock.tobytes(),
        "coll_wait_s": world.coll_wait_s.tobytes(),
        "imposed_wait_s": world.imposed_wait_s.tobytes(),
        "category_times": [
            world.category_breakdown([r], reduce="sum") for r in range(world.n_ranks)
        ],
        "trace": [repr(event) for event in world.trace],
        "spans": None if tracer is None else [repr(s) for s in tracer.spans],
        "metrics": None if metrics is None else metrics.to_dict(),
        "series": None if metrics is None else list(metrics),
        "checker": None
        if checker is None
        else (repr(checker.completed), checker.observed_events, checker._seq, checker._last_t),
        "costs": sorted({(event.comm_label, event.cost_s) for event in world.trace}),
        "asked": getattr(world.fault_injector, "asked", None),
    }


def _run_more(name, monkeypatch, *, per_chunk):
    with monkeypatch.context() as patched:
        if per_chunk:
            patched.setattr(CgyroSimulation, "_solve_fields", _per_chunk_solve)
        world, sims, run = MORE_SCENARIOS[name]()
        failure = None
        try:
            run()
        except (RankFailure, ProtocolError) as caught:
            failure = caught
        return _all_books(world, sims, failure)


@pytest.mark.parametrize("name", sorted(MORE_SCENARIOS))
def test_more_shapes_book_what_the_per_chunk_loop_booked(name, monkeypatch):
    got = _run_more(name, monkeypatch, per_chunk=False)
    assert got == _run_more(name, monkeypatch, per_chunk=True)
    assert len(got["trace"]) > 0
    assert (got["failure"] is not None) == (name == "unclean-chunk-0")
    if "flickers" in name:
        # a label's statements were priced at two factors
        labels = [label for label, _ in got["costs"]]
        assert len(labels) > len(set(labels)) and got["asked"] > 0


def test_an_unclean_solve_books_the_loops_prefix_and_no_later_chunk():
    world, sims, run = MORE_SCENARIOS["unclean-chunk-0"]()
    n_events, n_spans = len(world.trace), len(world.tracer)
    compute_s = world.category_time("str_compute", reduce="sum")
    with pytest.raises(ProtocolError) as caught:
        run()
    assert caught.value.code == "inflight-overlap"
    # round 0 of chunk 0 on group 0, then the raise on group 1
    assert len(world.trace) == n_events + 1
    assert [s.kind for s in world.tracer.spans[n_spans:]] == ["compute", "collective"]
    # chunk 0's compute was charged, no later chunk's
    solo = VirtualWorld(single_node(ranks=8))
    solo.charge_compute(range(8), flops=sims[0].costs.chunk_moment_flops[0])
    charged = world.category_time("str_compute", reduce="sum") - compute_s
    assert charged == pytest.approx(solo.category_time("uncategorized", reduce="sum"))


def test_a_blocking_solve_is_one_block_in_the_trace_and_the_span_log():
    world = _instrument(VirtualWorld(single_node(ranks=8)))
    sim = CgyroSimulation(world, range(8), small_test())
    n_chunks, n_mom = len(sim.costs.chunks), sim.costs.n_moments
    assert n_chunks > 1
    world.trace.events, world.tracer.spans  # build what set-up booked
    sim._solve_fields(sim.h_global)
    assert len(world.trace._pending) == len(world.tracer._pending) == 1
    rows = world.trace._pending[0][0]
    assert len(rows.t_starts) == n_chunks * n_mom and rows.rounds == n_mom
    assert len(rows.compute[2]) == n_chunks
    assert len(world.trace) == n_chunks * n_mom * len(rows.groups)
