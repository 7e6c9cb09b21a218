"""Semantics of the lockstep collectives, incl. property-based tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CollectiveError, CommunicatorError
from repro.machine import single_node
from repro.vmpi import Communicator, RankStacked, ReduceOp, VirtualWorld


def make_world(n=8):
    return VirtualWorld(single_node(ranks=n))


class TestAllreduce:
    def test_sum_of_arrays(self):
        w = make_world(4)
        comm = w.comm_world()
        values = {r: np.full(3, float(r)) for r in range(4)}
        out = comm.allreduce(values)
        expected = np.full(3, 0.0 + 1 + 2 + 3)
        for r in range(4):
            np.testing.assert_allclose(out[r], expected)

    def test_result_is_one_read_only_array(self):
        """No member can change what another received: they share one
        array and nobody may write to it."""
        w = make_world(2)
        comm = w.comm_world()
        out = comm.allreduce({0: np.ones(2), 1: np.ones(2)})
        assert out[0] is out[1]
        with pytest.raises(ValueError, match="read-only"):
            out[0][0] = 99.0
        assert out[1][0] == 2.0

    def test_scalar_values(self):
        w = make_world(3)
        out = w.comm_world().allreduce({0: 1.5, 1: 2.5, 2: 3.0})
        assert float(out[1]) == pytest.approx(7.0)

    def test_max_min_prod(self):
        w = make_world(3)
        comm = w.comm_world()
        vals = {0: np.array([1.0, -5.0]), 1: np.array([4.0, 2.0]), 2: np.array([3.0, 0.0])}
        np.testing.assert_allclose(comm.allreduce(vals, ReduceOp.MAX)[0], [4.0, 2.0])
        np.testing.assert_allclose(comm.allreduce(vals, ReduceOp.MIN)[0], [1.0, -5.0])
        np.testing.assert_allclose(comm.allreduce(vals, ReduceOp.PROD)[0], [12.0, 0.0])

    def test_complex_arrays(self):
        w = make_world(2)
        vals = {0: np.array([1 + 2j]), 1: np.array([3 - 1j])}
        out = w.comm_world().allreduce(vals)
        np.testing.assert_allclose(out[0], [4 + 1j])

    def test_wrong_participants_rejected(self):
        w = make_world(4)
        comm = Communicator(w, [0, 1])
        with pytest.raises(CommunicatorError, match="participant mismatch"):
            comm.allreduce({0: 1.0, 2: 2.0})

    def test_shape_mismatch_rejected(self):
        w = make_world(2)
        with pytest.raises(CollectiveError, match="shape"):
            w.comm_world().allreduce({0: np.ones(2), 1: np.ones(3)})

    def test_subcomm_only_involves_members(self):
        w = make_world(4)
        sub = Communicator(w, [1, 3], label="sub")
        out = sub.allreduce({1: np.array([1.0]), 3: np.array([2.0])})
        assert set(out) == {1, 3}
        np.testing.assert_allclose(out[3], [3.0])
        # ranks 0 and 2 were not synchronised
        assert w.clock[0] == 0.0 and w.clock[2] == 0.0
        assert w.clock[1] > 0.0

    @given(
        n=st.integers(min_value=1, max_value=6),
        length=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_sum_matches_numpy(self, n, length, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, length))
        w = make_world(max(n, 1))
        comm = Communicator(w, list(range(n)))
        out = comm.allreduce({r: data[r] for r in range(n)})
        np.testing.assert_allclose(out[0], data.sum(axis=0), rtol=1e-12)


# ----------------------------------------------------------------------
# the reduction order is NumPy's axis-0 order, whatever the strides
# ----------------------------------------------------------------------
#: what the allreduce did before it took stacked operands: stack
#: contiguous per-rank copies, reduce axis 0
_PARENT_REDUCE = {
    ReduceOp.SUM: lambda arrays: np.stack(arrays).sum(axis=0),
    ReduceOp.PROD: lambda arrays: np.stack(arrays).prod(axis=0),
    ReduceOp.MAX: lambda arrays: np.stack(arrays).max(axis=0),
    ReduceOp.MIN: lambda arrays: np.stack(arrays).min(axis=0),
}

#: a scalar, a vector (down to one element), the (nc, 1) field column
#: of an ``nt_loc = 1`` rank, and an aggregated (n_mom, nc, nt_loc) block
_operand_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.just(1)),
    st.tuples(st.integers(2, 3), st.integers(1, 5), st.integers(1, 3)),
)


def _strided_stack(rng, size, shape, dtype, op):
    """A ``(size, *shape)`` view with every stride non-trivial: one
    "moment" out of two and every other element of each operand axis
    of a larger C-ordered array, like the solver's
    ``partial[:, m, :, nt_slice]``."""
    big_shape = (size, 2) + tuple(2 * n for n in shape)
    if op is ReduceOp.PROD:
        big = rng.uniform(0.5, 2.0, size=big_shape)  # no overflow at 16 ranks
    else:
        # wide exponent range: any other summation order shows
        big = rng.normal(size=big_shape) * 10.0 ** rng.integers(-8, 9, size=big_shape)
    if dtype is np.complex128:
        big = big + 1j * rng.permutation(big.ravel()).reshape(big_shape)
    view = big[(slice(None), 1) + tuple(slice(1, None, 2) for _ in shape)]
    assert view.shape == (size,) + shape and view.dtype == dtype
    assert not view.flags.c_contiguous or view.size == 1
    return view


class TestStackedReductionOrder:
    @given(
        size=st.integers(1, 16),
        shape=_operand_shapes,
        dtype=st.sampled_from([np.float64, np.complex128]),
        op=st.sampled_from(list(ReduceOp)),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_strided_stack_reduces_to_the_parents_bits(self, size, shape, dtype, op, seed):
        view = _strided_stack(np.random.default_rng(seed), size, shape, dtype, op)
        before = view.copy()
        want = _PARENT_REDUCE[op]([np.array(row) for row in view])  # contiguous copies
        got = op.reduce(view)
        assert np.array_equal(got, want) and got.dtype == want.dtype
        assert np.shape(got) == shape

        # and through the collective, single-rank communicators included
        world = make_world(16)
        comm = Communicator(world, list(range(16))[-size:])
        out = comm.allreduce(RankStacked(comm.ranks, view), op)
        assert all(np.array_equal(out[r], want) for r in comm.ranks)
        plain = comm.allreduce({r: row.copy() for r, row in zip(comm.ranks, view)}, op)
        assert np.array_equal(plain[comm.ranks[0]], want)
        assert np.array_equal(view, before)
        first, second = world.trace.events
        assert (first.nbytes, first.cost_s) == (second.nbytes, second.cost_s)

    @pytest.mark.parametrize("shape", [(), (3,), (4, 1), (2, 3, 2)], ids=str)
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["f8", "c16"])
    def test_reversing_the_rank_order_changes_the_bits(self, shape, dtype):
        """Negative control: on a draw built to be order-sensitive the
        test above can fail — the order is part of the contract."""
        pattern = np.array([1e16, 3.0, -1e16, 1.0, 1.0], dtype=dtype)
        if dtype is np.complex128:
            pattern = pattern + 1j * pattern
        big = np.zeros((5, 2) + tuple(2 * n for n in shape), dtype=dtype)
        big[...] = pattern.reshape((5,) + (1,) * (1 + len(shape)))
        view = big[(slice(None), 1) + tuple(slice(1, None, 2) for _ in shape)]
        forward = ReduceOp.SUM.reduce(view)
        backward = ReduceOp.SUM.reduce(view[::-1])
        assert not np.array_equal(forward, backward)
        # ...and each is exactly the parent's answer for its own order
        assert np.array_equal(forward, np.stack([r.copy() for r in view]).sum(axis=0))
        assert np.array_equal(backward, np.stack([r.copy() for r in view[::-1]]).sum(axis=0))

    def test_blocks_fold_left_to_right_over_ranks(self):
        rows = np.array([[1e16, 3.0], [1.0, 1e-20], [-1e16, -3.0], [1.0, 1.0]])
        want = ((rows[0] + rows[1]) + rows[2]) + rows[3]
        assert np.array_equal(ReduceOp.SUM.reduce(rows), want)
        assert np.array_equal(ReduceOp.SUM.combine(list(rows)), want)
        assert want[0] == 1.0  # a pairwise (a0 + a1) + (a2 + a3) gives 0.0

    def test_empty_sequence_still_refused(self):
        with pytest.raises(CollectiveError, match="empty"):
            ReduceOp.SUM.combine([])


class TestAlltoall:
    def test_blocks_are_transposed(self):
        w = make_world(3)
        comm = w.comm_world()
        send = {
            r: [np.array([10 * r + j], dtype=float) for j in range(3)] for r in range(3)
        }
        recv = comm.alltoall(send)
        for j in range(3):
            for i in range(3):
                assert recv[j][i][0] == 10 * i + j

    def test_ragged_blocks_alltoallv(self):
        w = make_world(2)
        comm = w.comm_world()
        send = {
            0: [np.arange(2.0), np.arange(5.0)],
            1: [np.arange(3.0), np.zeros(0)],
        }
        recv = comm.alltoall(send)
        assert recv[0][0].size == 2 and recv[0][1].size == 3
        assert recv[1][0].size == 5 and recv[1][1].size == 0

    def test_alltoall_is_involution(self):
        """Applying alltoall twice restores the original block map."""
        rng = np.random.default_rng(0)
        w = make_world(4)
        comm = w.comm_world()
        send = {r: [rng.normal(size=3) for _ in range(4)] for r in range(4)}
        back = comm.alltoall(comm.alltoall(send))
        for r in range(4):
            for j in range(4):
                np.testing.assert_array_equal(back[r][j], send[r][j])

    def test_wrong_row_length_rejected(self):
        w = make_world(3)
        send = {r: [np.zeros(1)] * 2 for r in range(3)}
        with pytest.raises(CollectiveError, match="blocks"):
            w.comm_world().alltoall(send)

    @given(
        p=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_conservation_of_data(self, p, seed):
        """No element is lost or duplicated across the exchange."""
        rng = np.random.default_rng(seed)
        w = make_world(max(p, 1))
        comm = Communicator(w, list(range(p)))
        send = {r: [rng.normal(size=rng.integers(0, 4)) for _ in range(p)] for r in range(p)}
        sent_total = np.concatenate(
            [b for r in range(p) for b in send[r]] or [np.zeros(0)]
        )
        recv = comm.alltoall(send)
        recv_total = np.concatenate(
            [b for r in range(p) for b in recv[r]] or [np.zeros(0)]
        )
        np.testing.assert_allclose(np.sort(sent_total), np.sort(recv_total))


class TestOtherCollectives:
    def test_allgather_orders_by_comm_rank(self):
        w = make_world(4)
        comm = Communicator(w, [3, 1, 2], label="g")
        out = comm.allgather({3: np.array([30.0]), 1: np.array([10.0]), 2: np.array([20.0])})
        gathered = [float(b[0]) for b in out[1]]
        assert gathered == [30.0, 10.0, 20.0]

    def test_bcast_delivers_copies(self):
        w = make_world(3)
        src = np.arange(4.0)
        out = w.comm_world().bcast(src, root=1)
        for r in range(3):
            np.testing.assert_array_equal(out[r], src)
        out[0][0] = -1
        assert out[2][0] == 0.0

    def test_bcast_root_must_be_member(self):
        w = make_world(4)
        comm = Communicator(w, [0, 1])
        with pytest.raises(CommunicatorError):
            comm.bcast(np.zeros(1), root=3)

    def test_reduce_only_returns_root_value(self):
        w = make_world(3)
        result = w.comm_world().reduce({0: 1.0, 1: 2.0, 2: 4.0}, root=2)
        assert float(result) == 7.0

    def test_gather_scatter_roundtrip(self):
        w = make_world(4)
        comm = w.comm_world()
        values = {r: np.array([r * 1.0, r + 0.5]) for r in range(4)}
        gathered = comm.gather(values, root=0)
        scattered = comm.scatter(gathered, root=0)
        for r in range(4):
            np.testing.assert_array_equal(scattered[r], values[r])

    def test_scatter_wrong_block_count(self):
        w = make_world(3)
        with pytest.raises(CollectiveError):
            w.comm_world().scatter([np.zeros(1)] * 2, root=0)

    def test_barrier_synchronises_clocks(self):
        w = make_world(4)
        w.charge_compute(2, seconds=5.0)
        w.comm_world().barrier()
        assert np.all(w.clock >= 5.0)
        assert np.ptp(w.clock) == pytest.approx(0.0)
