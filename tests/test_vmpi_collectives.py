"""Semantics of the lockstep collectives, incl. property-based tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CollectiveError, CommunicatorError
from repro.machine.presets import single_node
from repro.vmpi.communicator import Communicator
from repro.vmpi.datatypes import RankStacked, reduce_ranks
from repro.vmpi.world import VirtualWorld


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
def _parent_reduce(arrays):
    """What the allreduce did before it took stacked operands: stack
    contiguous per-rank copies, sum axis 0."""
    return np.stack(arrays).sum(axis=0)


#: a scalar, a vector (down to one element), the (nc, 1) field column
#: of an ``nt_loc = 1`` rank, and an aggregated (n_mom, nc, nt_loc) block
_operand_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.just(1)),
    st.tuples(st.integers(2, 3), st.integers(1, 5), st.integers(1, 3)),
)


def _strided_stack(rng, size, shape, dtype):
    """A ``(size, *shape)`` view with every stride non-trivial: one
    "moment" out of two and every other element of each operand axis
    of a larger C-ordered array, like the solver's
    ``partial[:, m, :, nt_slice]``."""
    big_shape = (size, 2) + tuple(2 * n for n in shape)
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
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_strided_stack_reduces_to_the_parents_bits(self, size, shape, dtype, seed):
        view = _strided_stack(np.random.default_rng(seed), size, shape, dtype)
        before = view.copy()
        want = _parent_reduce([np.array(row) for row in view])  # contiguous copies
        got = reduce_ranks(view)
        assert np.array_equal(got, want) and got.dtype == want.dtype
        assert np.shape(got) == shape

        # and through the collective, single-rank communicators included
        world = make_world(16)
        comm = Communicator(world, list(range(16))[-size:])
        out = comm.allreduce(RankStacked(comm.ranks, view))
        assert all(np.array_equal(out[r], want) for r in comm.ranks)
        plain = comm.allreduce({r: row.copy() for r, row in zip(comm.ranks, view)})
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
        forward = reduce_ranks(view)
        backward = reduce_ranks(view[::-1])
        assert not np.array_equal(forward, backward)
        # ...and each is exactly the parent's answer for its own order
        assert np.array_equal(forward, np.stack([r.copy() for r in view]).sum(axis=0))
        assert np.array_equal(backward, np.stack([r.copy() for r in view[::-1]]).sum(axis=0))

    def test_blocks_fold_left_to_right_over_ranks(self):
        rows = np.array([[1e16, 3.0], [1.0, 1e-20], [-1e16, -3.0], [1.0, 1.0]])
        want = ((rows[0] + rows[1]) + rows[2]) + rows[3]
        assert np.array_equal(reduce_ranks(rows), want)
        assert want[0] == 1.0  # a pairwise (a0 + a1) + (a2 + a3) gives 0.0


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
