"""Tests for vmpi extensions: reduce_scatter, scan, sendrecv and
algorithm auto-selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CollectiveError, CommunicatorError
from repro.machine import generic_cluster, single_node
from repro.vmpi import Communicator, ReduceOp, VirtualWorld
from repro.vmpi.algorithms import AllreduceAlgorithm, AlltoallAlgorithm


def make_world(n=4, **kw):
    return VirtualWorld(single_node(ranks=n), **kw)


class TestReduceScatter:
    def test_each_rank_gets_its_block_of_the_sum(self):
        w = make_world(3)
        comm = w.comm_world()
        values = {r: np.full((3, 2), float(r + 1)) for r in range(3)}
        out = comm.reduce_scatter(values)
        for j, r in enumerate(comm.ranks):
            np.testing.assert_allclose(out[r], np.full(2, 6.0))

    def test_matches_reduce_then_slice(self):
        rng = np.random.default_rng(0)
        w = make_world(4)
        comm = w.comm_world()
        values = {r: rng.normal(size=(4, 5)) for r in range(4)}
        out = comm.reduce_scatter(values)
        full = sum(values.values())
        for j, r in enumerate(comm.ranks):
            np.testing.assert_allclose(out[r], full[j], rtol=1e-12)

    def test_first_axis_must_match_size(self):
        w = make_world(3)
        with pytest.raises(CollectiveError, match="first axis"):
            w.comm_world().reduce_scatter({r: np.zeros((2, 2)) for r in range(3)})

    def test_shape_mismatch_rejected(self):
        w = make_world(2)
        with pytest.raises(CollectiveError):
            w.comm_world().reduce_scatter({0: np.zeros((2, 2)), 1: np.zeros((2, 3))})


class TestScan:
    def test_inclusive_prefix_sums(self):
        w = make_world(4)
        out = w.comm_world().scan({r: np.array([1.0]) for r in range(4)})
        assert [float(out[r][0]) for r in range(4)] == [1.0, 2.0, 3.0, 4.0]

    def test_exclusive_prefix(self):
        w = make_world(3)
        out = w.comm_world().scan(
            {r: np.array([r + 1.0]) for r in range(3)}, exclusive=True
        )
        assert [float(out[r][0]) for r in range(3)] == [0.0, 1.0, 3.0]

    def test_max_scan(self):
        w = make_world(3)
        vals = {0: np.array([5.0]), 1: np.array([2.0]), 2: np.array([7.0])}
        out = w.comm_world().scan(vals, ReduceOp.MAX)
        assert [float(out[r][0]) for r in range(3)] == [5.0, 5.0, 7.0]

    @given(n=st.integers(2, 5), seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_last_rank_gets_full_reduction(self, n, seed):
        rng = np.random.default_rng(seed)
        w = make_world(n)
        comm = Communicator(w, range(n))
        values = {r: rng.normal(size=3) for r in range(n)}
        out = comm.scan(values)
        np.testing.assert_allclose(
            out[n - 1], sum(values.values()), rtol=1e-12
        )


class TestSendrecv:
    def test_payload_delivered(self):
        w = make_world(4)
        comm = w.comm_world()
        got = comm.sendrecv(np.arange(5.0), source=1, dest=3)
        np.testing.assert_array_equal(got, np.arange(5.0))

    def test_only_endpoints_charged(self):
        w = make_world(4)
        w.comm_world().sendrecv(np.ones(100), source=0, dest=2)
        assert w.clock[0] > 0 and w.clock[2] > 0
        assert w.clock[1] == 0 and w.clock[3] == 0

    def test_self_send_is_free(self):
        w = make_world(2)
        got = w.comm_world().sendrecv(np.ones(3), source=1, dest=1)
        np.testing.assert_array_equal(got, np.ones(3))
        assert w.clock[1] == 0.0

    def test_traced_as_sendrecv(self):
        w = make_world(2)
        w.comm_world().sendrecv(np.ones(4), source=0, dest=1)
        ev = w.trace.events[-1]
        assert ev.kind == "sendrecv"
        assert ev.ranks == (0, 1)
        assert ev.nbytes == 32

    def test_endpoints_must_be_members(self):
        w = make_world(4)
        sub = Communicator(w, [0, 1])
        with pytest.raises(CommunicatorError):
            sub.sendrecv(np.ones(1), source=0, dest=3)

    def test_inter_node_costs_more(self):
        machine = generic_cluster(n_nodes=2, ranks_per_node=2)
        w = VirtualWorld(machine)
        comm = w.comm_world()
        comm.sendrecv(np.ones(1000), source=0, dest=1)  # intra
        intra = w.trace.events[-1].cost_s
        comm.sendrecv(np.ones(1000), source=0, dest=2)  # inter
        inter = w.trace.events[-1].cost_s
        assert inter > intra


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
    "barrier": lambda c: c.barrier(),
    "allreduce": lambda c: c.allreduce(_V),
    "iallreduce": lambda c: c.iallreduce(_V).wait(),
    "alltoall": lambda c: c.alltoall(_ROWS),
    "ialltoall": lambda c: c.ialltoall(_ROWS).wait(),
    "allgather": lambda c: c.allgather(_V),
    "bcast": lambda c: c.bcast(_V[0], root=0),
    "reduce": lambda c: c.reduce(_V, root=0),
    "gather": lambda c: c.gather(_V, root=0),
    "scatter": lambda c: c.scatter([_V[r] for r in range(4)], root=0),
    "reduce_scatter": lambda c: c.reduce_scatter(_V),
    "scan": lambda c: c.scan(_V),
    "sendrecv": lambda c: c.sendrecv(_V[0], 0, 1),
}


class TestOneRecordPoint:
    """Every collective is accounted the same way, in one place."""

    @pytest.mark.parametrize("name", sorted(COLLECTIVES))
    def test_collective_is_recorded_once_everywhere(self, name):
        from repro.obs import Telemetry

        w = make_world(4)
        comm = w.comm_world()
        comm.barrier()  # seq 1, before the telemetry listens
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

    def test_sendrecv_cost_is_the_p2p_formula(self):
        """overhead + latency + nbytes/bandwidth, fault factor included;
        a self-send stays free and untraced."""

        class Slow:
            def on_collective(self, kind, ranks, comm_label):
                return 3.0

        payload = np.ones(1000)
        costs = []
        for injector in (None, Slow()):
            w = VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=2))
            w.install_fault_injector(injector)
            comm = w.comm_world()
            comm.sendrecv(payload, 2, 2)
            assert len(w.trace) == 0 and w.elapsed() == 0.0
            comm.sendrecv(payload, 0, 3)
            costs.append(w.trace.events[0].cost_s)
            link = w.cost_model.effective_link((0, 3))
        p2p = link.overhead_s + link.latency_s + payload.nbytes / link.bandwidth_Bps
        assert costs == [p2p, 3.0 * p2p]
