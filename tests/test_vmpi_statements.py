"""A blocking statement's static half is prepared once, and a family of
one-rank groups keeps no wait books.

``VirtualWorld._charge_blocking`` builds each distinct statement's
prices, byte counts, algorithm names, labels and first ranks once and
shares them between the blocks it books.  These tests hold that memo
fresh where a price's inputs change under it — a reassigned default
algorithm, an armed link slowdown — and hold the one-rank shortcut to
the books the general body keeps (``tests/goldens/world_books.json``
holds whole runs to their recorded bytes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.machine.presets import generic_cluster
from repro.obs import Telemetry
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.injector import FaultInjector
from repro.vmpi.algorithms import AllreduceAlgorithm
from repro.vmpi.world import VirtualWorld

_RD = AllreduceAlgorithm.RECURSIVE_DOUBLING


def _sim(world):
    # 8 ranks: P1 = 2 x P2 = 4, so a solve's statements are G = 4 groups of 2
    return CgyroSimulation(world, range(8), small_test())


def _solve(sim):
    """The trace events one blocking field solve books."""
    n = len(sim.world.trace)
    sim._solve_fields(sim.h_global)
    return sim.world.trace.events[n:]


class TestStatementMemo:
    def test_a_reassigned_default_is_priced_afresh(self):
        world = VirtualWorld(generic_cluster(n_nodes=2))
        sim = _sim(world)
        first = _solve(sim)
        # what campaign/runner.py and plan/planner.py do with a tuned plan
        world.cost_model.default_allreduce = _RD
        second = _solve(sim)
        assert {e.algorithm for e in first} == {"ring"}
        assert {e.algorithm for e in second} == {"recursive-doubling"}
        price = world.cost_model.collective_cost
        for e in second:
            assert e.cost_s == price("allreduce", e.ranks, e.nbytes, algorithm=_RD)
        assert [e.cost_s for e in second] != [e.cost_s for e in first]
        # and equal to a world that ran the new default from the start
        fresh = VirtualWorld(generic_cluster(n_nodes=2))
        fresh.cost_model.default_allreduce = _RD
        want = _solve(_sim(fresh))
        assert [(e.algorithm, e.cost_s) for e in second] == [
            (e.algorithm, e.cost_s) for e in want
        ]

    def test_an_armed_link_slowdown_still_multiplies(self):
        world = VirtualWorld(generic_cluster(n_nodes=2))
        sim = _sim(world)
        before = _solve(sim)
        plan = FaultPlan(specs=(FaultSpec("link_slowdown", at_step=0, factor=3.0),))
        world.install_fault_injector(FaultInjector(world, plan))
        slowed = _solve(sim)
        world.comm_world().allreduce({r: 1.0 for r in range(world.n_ranks)})
        single = world.trace.events[-1]
        world.install_fault_injector(None)
        after = _solve(sim)
        assert [e.cost_s for e in slowed] == [3.0 * e.cost_s for e in before]
        assert single.cost_s == 3.0 * world.cost_model.collective_cost(
            "allreduce", single.ranks, single.nbytes, algorithm=AllreduceAlgorithm.RING
        )
        # the slowed statements left the memo as they found it
        assert [e.cost_s for e in after] == [e.cost_s for e in before]


def _general_body(world, groups):
    """What the general body books for ``groups`` on the world's clocks:
    (coll_wait_s, imposed_wait_s, per-group wait, last arrivals)."""
    idx = np.array(groups)
    clocks = world.clock[idx]
    t0 = clocks.max(axis=1)
    waits = t0[:, None] - clocks
    coll_wait, imposed = world.coll_wait_s.copy(), world.imposed_wait_s.copy()
    coll_wait[idx] += waits
    wait_s = [float(row.sum()) for row in waits]
    last = [ranks[i] for ranks, i in zip(groups, clocks.argmax(axis=1).tolist())]
    imposed[last] += wait_s
    return coll_wait, imposed, wait_s, last


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestOneRankFamilies:
    @pytest.mark.parametrize("rounds", [1, 3])
    def test_books_equal_the_general_body_on_skewed_clocks(self, rounds):
        world = VirtualWorld(generic_cluster(n_nodes=2))
        telemetry = Telemetry()
        telemetry.install(world)
        rng = np.random.default_rng(rounds)
        world.charge_compute(range(8), seconds=dict(enumerate(rng.random(8))))
        # earlier waits the shortcut must leave exactly as they are
        world.comm_world().allreduce({r: 1.0 for r in range(8)})
        world.charge_compute(range(8), seconds=dict(enumerate(rng.random(8))))
        groups = ((5,), (2,), (7,), (0,))
        want_coll, want_imposed, want_wait, want_last = _general_body(world, groups)
        n_spans = len(telemetry.tracer.spans)
        world.charge_collective_block(
            "allreduce", groups, [64, 8, 64, 8], rounds,
            comm_labels=[f"g{r}" for (r,) in groups],
            algorithms=[AllreduceAlgorithm.RING] * 4,
        )
        assert _bits(world.coll_wait_s) == _bits(want_coll)
        assert _bits(world.imposed_wait_s) == _bits(want_imposed)
        spans = telemetry.tracer.spans[n_spans:]
        assert [s.attrs["last_arrival"] for s in spans[: len(groups)]] == want_last
        waits = [
            telemetry.metrics.counter("vmpi_coll_wait_seconds_total", comm=f"g{r}").value
            for (r,) in groups
        ]
        assert _bits(waits) == _bits(want_wait)
