"""Algorithm selection, and the one record point every collective
goes through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CollectiveError
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld
from repro.vmpi.algorithms import AllreduceAlgorithm


def make_world(n=4, **kw):
    return VirtualWorld(single_node(ranks=n), **kw)


class TestAlgorithmSelection:
    def test_default_policy_is_fixed(self):
        w = make_world(4)
        w.comm_world().allreduce({r: np.ones(2) for r in range(4)})
        assert w.trace.events[-1].algorithm == "ring"

    def test_pinned_default_is_used(self):
        # how an autotuned plan swaps the fixed choice (CampaignRunner._dispatch)
        w = make_world(4)
        w.cost_model.default_allreduce = AllreduceAlgorithm.RECURSIVE_DOUBLING
        w.comm_world().allreduce({r: np.ones(2) for r in range(4)})
        assert w.trace.events[-1].algorithm == "recursive-doubling"

    def test_explicit_algorithm_wins_over_default(self):
        w = make_world(4)
        w.comm_world().allreduce(
            {r: np.ones(2) for r in range(4)},
            algorithm=AllreduceAlgorithm.RECURSIVE_DOUBLING,
        )
        assert w.trace.events[-1].algorithm == "recursive-doubling"

    def test_selection_rejects_unknown_kind(self):
        w = make_world(2)
        with pytest.raises(CollectiveError):
            w.cost_model.select_algorithm("bcast")


# every Communicator collective, as a call on comm_world of 4 ranks that
# returns once the collective has been charged (nonblocking ones waited)
_V = {r: np.full((4, 2), float(r + 1)) for r in range(4)}
_ROWS = {r: [np.full(2, float(r)) for _ in range(4)] for r in range(4)}
COLLECTIVES = {
    "allreduce": lambda c: c.allreduce(_V),
    "iallreduce": lambda c: c.iallreduce(_V).wait(),
    "alltoall": lambda c: c.alltoall(_ROWS),
    "ialltoall": lambda c: c.ialltoall(_ROWS).wait(),
}


class TestOneRecordPoint:
    """Every collective is accounted the same way, in one place."""

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_collective_is_recorded_once_everywhere(self, name):
        from repro.obs import Telemetry

        w = make_world(4)
        comm = w.comm_world()
        comm.allreduce(_V)  # seq 1, before the telemetry listens
        tele = Telemetry()
        tele.install(w)
        lag_s = 0.25
        w.charge_compute(0, seconds=lag_s)  # rank 0 arrives last
        COLLECTIVES[name](comm)

        (first, ev) = w.trace.events
        assert (first.seq, ev.seq) == (1, 2)
        assert ev.nonblocking == name.startswith("i")
        leaves = [s for s in tele.tracer.spans if s.kind == "collective"]
        assert len(leaves) == 1
        assert leaves[0].name == f"{ev.kind} [{ev.comm_label}]"
        assert leaves[0].ranks == ev.ranks
        assert leaves[0].attrs["last_arrival"] == 0

        # the entry wait of everyone but rank 0, booked and attributed
        waited = lag_s * (len(ev.ranks) - 1)
        assert w.coll_wait_s[list(ev.ranks)].sum() == pytest.approx(waited)
        assert w.coll_wait_s[0] == pytest.approx(0.0, abs=1e-12)
        assert w.imposed_wait_s[0] == pytest.approx(waited)

        m = tele.metrics
        label = ev.comm_label
        assert m.counter("vmpi_collectives_total", kind=ev.kind).value == 1
        assert m.counter(
            "vmpi_collective_bytes_total", kind=ev.kind, comm=label
        ).value == ev.nbytes
        assert m.counter(
            "vmpi_coll_wait_seconds_total", comm=label
        ).value == pytest.approx(waited)
        assert m.counter(
            "vmpi_imposed_wait_seconds_total", rank=0
        ).value == pytest.approx(waited)
        hist = m.histogram_or_none("vmpi_collective_cost_seconds", kind=ev.kind)
        assert hist is not None and hist.snapshot().count == 1
