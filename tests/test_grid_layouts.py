"""Tests for layouts and AllToAll transposes.

The central invariant: transposing a distributed field between layouts
via the communicator-based AllToAll yields exactly the blocks that
slicing the global array under the target layout would give.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecompositionError
from repro.grid.decomp import Decomposition
from repro.grid.dims import GridDims
from repro.grid.layouts import (
    Layout,
    block_nbytes,
    block_shape,
    gather_global,
    nc_nl_slice,
    scatter_global,
)
from repro.grid.transpose import (
    transpose_coll_to_str,
    transpose_nl_to_str,
    transpose_str_to_coll,
    transpose_str_to_nl,
)
from repro.machine.presets import single_node
from repro.vmpi.communicator import Communicator
from repro.vmpi.world import VirtualWorld


def dims(nr=4, nth=4, ne=2, nxi=4, ns=2, nt=4):
    return GridDims(nr, nth, ne, nxi, ns, nt)  # nc=16, nv=16, nt=4


def random_field(d, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(d.nc, d.nv, d.nt)) + 1j * rng.normal(size=(d.nc, d.nv, d.nt))


class TestScatterGather:
    @pytest.mark.parametrize("layout", list(Layout))
    def test_roundtrip(self, layout):
        d = dims()
        dec = Decomposition(d, 4, 2)
        f = random_field(d)
        blocks = scatter_global(f, layout, dec)
        assert all(b.shape == block_shape(layout, dec) for b in blocks)
        back = gather_global(blocks, layout, dec)
        np.testing.assert_array_equal(back, f)

    def test_block_shapes(self):
        d = dims()
        dec = Decomposition(d, 4, 2)
        assert block_shape(Layout.STR, dec) == (16, 4, 2)
        assert block_shape(Layout.COLL, dec) == (4, 16, 2)
        assert block_shape(Layout.NL, dec) == (8, 4, 4)

    def test_block_nbytes(self):
        d = dims()
        dec = Decomposition(d, 4, 2)
        assert block_nbytes(Layout.STR, dec) == 16 * 4 * 2 * 16

    def test_nl_layout_requires_p2_divides_nc(self):
        d = GridDims(1, 3, 2, 4, 2, 4)  # nc=3
        dec = Decomposition(d, 1, 2)
        with pytest.raises(DecompositionError, match="NL layout"):
            block_shape(Layout.NL, dec)

    def test_shape_validation(self):
        d = dims()
        dec = Decomposition(d, 4, 2)
        with pytest.raises(DecompositionError):
            scatter_global(np.zeros((2, 2, 2)), Layout.STR, dec)
        with pytest.raises(DecompositionError):
            gather_global([np.zeros((1, 1, 1))] * dec.n_proc, Layout.STR, dec)
        with pytest.raises(DecompositionError):
            gather_global([np.zeros(block_shape(Layout.STR, dec))], Layout.STR, dec)


def build_group_comms(world, dec):
    """comm_1 per toroidal group and comm_2 per i1 column (local = world rank)."""
    comm = world.comm_world()
    comm1 = {
        i2: comm.sub(dec.group_ranks(i2), label=f"comm1.g{i2}")
        for i2 in range(dec.n_proc_2)
    }
    comm2 = {
        i1: comm.sub(dec.cross_group_ranks(i1), label=f"comm2.c{i1}")
        for i1 in range(dec.n_proc_1)
    }
    return comm1, comm2


class TestTransposes:
    def setup_method(self):
        self.d = dims()
        self.dec = Decomposition(self.d, 4, 2)
        self.world = VirtualWorld(single_node(ranks=8))
        self.comm1, self.comm2 = build_group_comms(self.world, self.dec)

    def _blocks(self, f, layout):
        return dict(enumerate(scatter_global(f, layout, self.dec)))

    def test_str_to_coll_matches_direct_slicing(self):
        f = random_field(self.d, 1)
        str_blocks = self._blocks(f, Layout.STR)
        expected = self._blocks(f, Layout.COLL)
        for i2, comm in self.comm1.items():
            got = transpose_str_to_coll(
                comm, {r: str_blocks[r] for r in comm.ranks}, self.dec
            )
            for r in comm.ranks:
                np.testing.assert_array_equal(got[r], expected[r])

    def test_coll_to_str_matches_direct_slicing(self):
        f = random_field(self.d, 2)
        coll_blocks = self._blocks(f, Layout.COLL)
        expected = self._blocks(f, Layout.STR)
        for i2, comm in self.comm1.items():
            got = transpose_coll_to_str(
                comm, {r: coll_blocks[r] for r in comm.ranks}, self.dec
            )
            for r in comm.ranks:
                np.testing.assert_array_equal(got[r], expected[r])

    def test_str_to_nl_matches_direct_slicing(self):
        f = random_field(self.d, 3)
        str_blocks = self._blocks(f, Layout.STR)
        expected = self._blocks(f, Layout.NL)
        for i1, comm in self.comm2.items():
            column = transpose_str_to_nl(
                comm, {r: str_blocks[r] for r in comm.ranks}, self.dec
            )
            # the column is the i1 velocity slab of the global field, and
            # its row ranges are its ranks' NL blocks
            np.testing.assert_array_equal(column, f[:, self.dec.nv_slice(i1), :])
            for j, r in enumerate(comm.ranks):
                np.testing.assert_array_equal(
                    column[nc_nl_slice(self.dec, j)], expected[r]
                )

    def test_str_to_nl_moves_a_field_like_the_state(self):
        f = random_field(self.d, 7)
        phi = f[:, 0, :]
        for comm in self.comm2.values():
            blocks = {
                r: phi[:, self.dec.nt_slice(i2)] for i2, r in enumerate(comm.ranks)
            }
            column = transpose_str_to_nl(comm, blocks, self.dec)
            np.testing.assert_array_equal(column, phi)
            with pytest.raises(DecompositionError, match="block shape"):
                transpose_str_to_nl(
                    comm, {r: b[:, :1] for r, b in blocks.items()}, self.dec
                )

    def test_nl_to_str_matches_direct_slicing(self):
        f = random_field(self.d, 4)
        nl_blocks = self._blocks(f, Layout.NL)
        expected = self._blocks(f, Layout.STR)
        for i1, comm in self.comm2.items():
            column = np.concatenate([nl_blocks[r] for r in comm.ranks], axis=0)
            out = {
                r: np.zeros(block_shape(Layout.STR, self.dec), complex)
                for r in comm.ranks
            }
            assert transpose_nl_to_str(comm, column, self.dec, out) is None
            for r in comm.ranks:
                np.testing.assert_array_equal(out[r], expected[r])
        # written in place into the STR layout's global array
        g = np.zeros_like(f)
        for i1, comm in self.comm2.items():
            views = {
                r: g[:, self.dec.nv_slice(i1), self.dec.nt_slice(i2)]
                for i2, r in enumerate(comm.ranks)
            }
            transpose_nl_to_str(comm, f[:, self.dec.nv_slice(i1), :], self.dec, views)
        np.testing.assert_array_equal(g, f)

    def test_nl_to_str_rejects_a_wrong_column(self):
        comm = self.comm2[0]
        out = {r: np.zeros(block_shape(Layout.STR, self.dec), complex) for r in comm.ranks}
        with pytest.raises(DecompositionError, match="column shape"):
            transpose_nl_to_str(comm, np.zeros((16, 4, 2), complex), self.dec, out)
        assert not self.world.trace.filter(kind="alltoall")

    def test_transposes_charge_alltoall_events(self):
        f = random_field(self.d, 5)
        str_blocks = self._blocks(f, Layout.STR)
        transpose_str_to_coll(
            self.comm1[0], {r: str_blocks[r] for r in self.comm1[0].ranks}, self.dec
        )
        events = self.world.trace.filter(kind="alltoall")
        assert len(events) == 1
        assert events[0].size == self.dec.n_proc_1

    def test_wrong_comm_size_rejected(self):
        f = random_field(self.d, 6)
        str_blocks = self._blocks(f, Layout.STR)
        bad = self.world.comm_world()
        with pytest.raises(DecompositionError, match="communicator size"):
            transpose_str_to_coll(bad, str_blocks, self.dec)

    def test_wrong_block_shape_rejected(self):
        comm = self.comm1[0]
        bad_blocks = {r: np.zeros((1, 1, 1), dtype=complex) for r in comm.ranks}
        with pytest.raises(DecompositionError, match="block shape"):
            transpose_str_to_coll(comm, bad_blocks, self.dec)

    @given(
        p1=st.sampled_from([1, 2, 4]),
        p2=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, p1, p2, seed):
        """str->coll->str is the identity for every valid decomposition."""
        d = dims()
        dec = Decomposition(d, p1, p2)
        world = VirtualWorld(single_node(ranks=max(dec.n_proc, 1)))
        comm1, _ = build_group_comms(world, dec)
        f = random_field(d, seed)
        blocks = dict(enumerate(scatter_global(f, Layout.STR, dec)))
        for i2, comm in comm1.items():
            sub = {r: blocks[r] for r in comm.ranks}
            back = transpose_coll_to_str(
                comm, transpose_str_to_coll(comm, sub, dec), dec
            )
            for r in comm.ranks:
                np.testing.assert_array_equal(back[r], blocks[r])
