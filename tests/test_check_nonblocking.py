"""Nonblocking-collective semantics: negative paths and properties.

Two batteries over the post/wait protocol:

- **Negative paths** (lockstep and schedule mode): a request left
  unwaited at finalize, a second ``wait()``, a collective posted on an
  *overlapping* communicator while a request is in flight, a blocking
  collective issued mid-request, and a wait with nothing outstanding
  are each a diagnosed :class:`~repro.errors.ProtocolError` carrying
  the offending sequence numbers — never a hang or a silent pass.
  Pipelining further nonblocking collectives on the *same*
  communicator (MPI's ordered-issue rule) stays legal.

- **Properties** (Hypothesis): for any interleaving of post / compute /
  wait events on two disjoint communicators, the nonblocking run
  matches the blocking run bit-exactly, never charges any rank more
  than the blocking schedule, and never less than
  ``max(total compute, total comm)`` — overlap may hide cost, not
  invent time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.checker import CollectiveChecker
from repro.errors import ProtocolError
from repro.machine.presets import generic_cluster
from repro.vmpi.communicator import Communicator
from repro.vmpi.world import VirtualWorld


def _checked_world(n_nodes=2, ranks_per_node=4):
    world = VirtualWorld(generic_cluster(n_nodes=n_nodes, ranks_per_node=ranks_per_node))
    ck = CollectiveChecker()
    world.install_checker(ck)
    return world, ck


def _values(ranks, scale=1.0):
    return {r: np.full(3, scale * (r + 1.0)) for r in ranks}


# ----------------------------------------------------------------------
# negative paths, lockstep mode
# ----------------------------------------------------------------------
class TestLockstepNegativePaths:
    def test_never_waited_diagnosed_at_finalize(self):
        world, ck = _checked_world()
        comm = Communicator(world, [0, 1, 2], label="ens")
        comm.iallreduce(_values(comm.ranks))  # request dropped on the floor
        with pytest.raises(ProtocolError) as exc:
            ck.assert_quiescent()
        err = exc.value
        assert err.code == "never-waited"
        assert set(err.ranks) == {0, 1, 2}
        assert err.seqs and len(err.seqs) == 3
        assert "never waited" in str(err)

    def test_request_wait_twice_is_double_wait(self):
        world, ck = _checked_world()
        comm = Communicator(world, [0, 1], label="pair")
        req = comm.iallreduce(_values(comm.ranks))
        req.wait()
        with pytest.raises(ProtocolError) as exc:
            req.wait()
        assert exc.value.code == "double-wait"
        ck.assert_quiescent()

    def test_checker_level_double_wait_names_post_seqs(self):
        world, ck = _checked_world()
        comm = Communicator(world, [0, 1], label="pair")
        req = comm.iallreduce(_values(comm.ranks))
        req_id = req._ck_req
        ck.lockstep_wait(req_id)
        world.complete_collective(req._pending)
        with pytest.raises(ProtocolError) as exc:
            ck.lockstep_wait(req_id)
        err = exc.value
        assert err.code == "double-wait"
        assert err.seqs, "double-wait must name the original post seqs"
        assert set(err.ranks) == {0, 1}

    def test_overlapping_communicator_post_while_inflight(self):
        world, ck = _checked_world()
        a = Communicator(world, [0, 1, 2, 3], label="A")
        b = Communicator(world, [2, 3, 4, 5], label="B")
        req = a.iallreduce(_values(a.ranks))
        with pytest.raises(ProtocolError) as exc:
            b.iallreduce(_values(b.ranks))
        err = exc.value
        assert err.code == "inflight-overlap"
        assert set(err.comm_labels) == {"A", "B"}
        assert len(err.seqs) == 2  # the prior post and the offender
        assert req is not None

    def test_blocking_collective_while_inflight(self):
        world, ck = _checked_world()
        a = Communicator(world, [0, 1], label="A")
        a.iallreduce(_values(a.ranks))
        with pytest.raises(ProtocolError) as exc:
            a.allreduce(_values(a.ranks))  # blocking: illegal even same-comm
        assert exc.value.code == "inflight-overlap"

    def test_stray_wait_with_nothing_outstanding(self):
        ck = CollectiveChecker()
        with pytest.raises(ProtocolError) as exc:
            ck.nb_wait(0)
        assert exc.value.code == "stray-wait"

    def test_same_comm_pipelining_is_legal(self):
        world, ck = _checked_world()
        comm = Communicator(world, [0, 1, 2], label="ens")
        r1 = comm.iallreduce(_values(comm.ranks, 1.0))
        r2 = comm.iallreduce(_values(comm.ranks, 10.0))  # FIFO behind r1
        out1 = r1.wait()
        out2 = r2.wait()
        ck.assert_quiescent()
        expect = sum(r + 1.0 for r in comm.ranks)
        assert out1[0][0] == expect
        assert out2[0][0] == 10.0 * expect

    def test_same_comm_requests_waitable_in_any_order(self):
        world, ck = _checked_world()
        comm = Communicator(world, [0, 1], label="pair")
        r1 = comm.iallreduce(_values(comm.ranks, 1.0))
        r2 = comm.iallreduce(_values(comm.ranks, 2.0))
        r2.wait()  # explicit handles may retire out of order
        r1.wait()
        ck.assert_quiescent()


# ----------------------------------------------------------------------
# negative paths, schedule mode
# ----------------------------------------------------------------------
def _spec(label, ranks, **kw):
    out = {
        "comm_label": label,
        "comm_ranks": tuple(ranks),
        "kind": "allreduce",
        "nbytes": 64,
        "op": "SUM",
        "dtype": "float64",
    }
    out.update(kw)
    return out


class TestScheduleNegativePaths:
    def test_post_wait_roundtrip(self):
        ck = CollectiveChecker()
        prog = [dict(_spec("A", (0, 1)), mode="post"), {"mode": "wait"}]
        n = ck.run_programs({0: list(prog), 1: list(prog)})
        assert n == 1
        ck.assert_quiescent()

    def test_partner_never_posts_is_diagnosed_deadlock(self):
        ck = CollectiveChecker()
        with pytest.raises(ProtocolError) as exc:
            ck.run_programs(
                {
                    0: [dict(_spec("A", (0, 1)), mode="post"), {"mode": "wait"}],
                    1: [],  # never posts: rank 0's wait can never complete
                }
            )
        err = exc.value
        assert err.code == "deadlock"
        assert 0 in err.ranks
        assert err.seqs
        assert "missing ranks [1]" in str(err)

    def test_never_waited_program_is_diagnosed(self):
        ck = CollectiveChecker()
        post = dict(_spec("A", (0, 1)), mode="post")
        with pytest.raises(ProtocolError) as exc:
            ck.run_programs({0: [post], 1: [dict(post)]})
        err = exc.value
        assert err.code == "never-waited"
        assert set(err.ranks) == {0, 1}

    def test_double_wait_program_is_diagnosed(self):
        ck = CollectiveChecker()
        post = dict(_spec("A", (0, 1)), mode="post")
        with pytest.raises(ProtocolError) as exc:
            ck.run_programs(
                {
                    0: [dict(post), {"mode": "wait"}, {"mode": "wait"}],
                    1: [dict(post), {"mode": "wait"}],
                }
            )
        err = exc.value
        assert err.code == "double-wait"
        assert err.seqs

    def test_wait_without_post_is_stray(self):
        ck = CollectiveChecker()
        with pytest.raises(ProtocolError) as exc:
            ck.run_programs({0: [{"mode": "wait"}]})
        assert exc.value.code == "stray-wait"

    def test_cross_comm_post_while_inflight_is_diagnosed(self):
        ck = CollectiveChecker()
        with pytest.raises(ProtocolError) as exc:
            ck.run_programs(
                {
                    0: [
                        dict(_spec("A", (0, 1)), mode="post"),
                        dict(_spec("B", (0, 2)), mode="post"),
                        {"mode": "wait"},
                        {"mode": "wait"},
                    ],
                    1: [dict(_spec("A", (0, 1)), mode="post"), {"mode": "wait"}],
                    2: [dict(_spec("B", (0, 2)), mode="post"), {"mode": "wait"}],
                }
            )
        err = exc.value
        assert err.code == "inflight-overlap"
        assert set(err.comm_labels) == {"A", "B"}
        assert len(err.seqs) == 2

    def test_same_comm_pipelined_programs_complete(self):
        ck = CollectiveChecker()
        prog = [
            dict(_spec("A", (0, 1)), mode="post"),
            dict(_spec("A", (0, 1)), mode="post"),
            {"mode": "wait"},
            {"mode": "wait"},
        ]
        n = ck.run_programs({0: list(prog), 1: [dict(s) for s in prog]})
        assert n == 2
        ck.assert_quiescent()


# ----------------------------------------------------------------------
# Hypothesis: interleavings on disjoint communicators
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

#: two disjoint groups on a 2x4 generic cluster
_GROUPS = ((0, 1, 2, 3), (4, 5, 6, 7))


@st.composite
def _interleavings(draw):
    """A merged event stream over two disjoint communicator groups.

    Each group runs ``n`` pipelined iallreduces with compute segments
    before, between, and after the posts, then waits them FIFO.  The
    merge order across groups is arbitrary (per-group order preserved).
    """
    secs = st.floats(min_value=0.0, max_value=4.0)
    streams = []
    for _ in _GROUPS:
        n = draw(st.integers(min_value=1, max_value=2))
        events = [("compute", draw(secs))]
        for i in range(n):
            events.append(("post", i))
            events.append(("compute", draw(secs)))
        for i in range(n):
            events.append(("wait", i))
        events.append(("compute", draw(secs)))
        streams.append(events)
    order = draw(
        st.permutations([0] * len(streams[0]) + [1] * len(streams[1]))
    )
    merged = []
    cursor = [0, 0]
    for g in order:
        merged.append((g, streams[g][cursor[g]]))
        cursor[g] += 1
    return merged


def _payload(g, tag):
    return {r: np.full(4, (r + 1.0) * (tag + 1.0)) for r in _GROUPS[g]}


def _execute(merged, *, nonblocking, zero_compute=False):
    """Run the merged stream; returns (world, results-per-group).

    ``nonblocking=False`` degrades every post to a blocking allreduce
    at the same program point (waits become no-ops) — the reference
    schedule.  ``zero_compute=True`` drops the compute charges, so the
    final clocks are the pure communication cost.
    """
    world, ck = _checked_world()
    comms = [
        Communicator(world, _GROUPS[g], label=f"g{g}")
        for g in range(len(_GROUPS))
    ]
    reqs = {g: [] for g in range(len(_GROUPS))}
    results = {g: {} for g in range(len(_GROUPS))}
    for g, ev in merged:
        if ev[0] == "compute":
            if not zero_compute:
                world.charge_compute(list(_GROUPS[g]), seconds=ev[1])
        elif ev[0] == "post":
            if nonblocking:
                reqs[g].append(comms[g].iallreduce(_payload(g, ev[1])))
            else:
                results[g][ev[1]] = comms[g].allreduce(_payload(g, ev[1]))
        else:  # wait
            if nonblocking:
                results[g][ev[1]] = reqs[g][ev[1]].wait()
    ck.assert_quiescent()
    return world, results


@settings(deadline=None, max_examples=50)
@given(_interleavings())
def test_interleavings_match_blocking_bitexact(merged):
    _, nb = _execute(merged, nonblocking=True)
    _, bl = _execute(merged, nonblocking=False)
    for g in range(len(_GROUPS)):
        assert set(nb[g]) == set(bl[g])
        for tag in nb[g]:
            for r in _GROUPS[g]:
                assert np.array_equal(nb[g][tag][r], bl[g][tag][r])


@settings(deadline=None, max_examples=50)
@given(_interleavings())
def test_interleavings_respect_cost_bounds(merged):
    nb_world, _ = _execute(merged, nonblocking=True)
    bl_world, _ = _execute(merged, nonblocking=False)
    comm_world, _ = _execute(merged, nonblocking=True, zero_compute=True)
    compute_total = {g: 0.0 for g in range(len(_GROUPS))}
    for g, ev in merged:
        if ev[0] == "compute":
            compute_total[g] += ev[1]
    for g, ranks in enumerate(_GROUPS):
        for r in ranks:
            # overlap may only hide cost under compute, never add time
            assert nb_world.clock[r] <= bl_world.clock[r] + 1e-9
            # ... and never invent it: the clock is at least the pure
            # compute and at least the pure (serialized) comm cost
            floor = max(compute_total[g], float(comm_world.clock[r]))
            assert nb_world.clock[r] >= floor - 1e-9
