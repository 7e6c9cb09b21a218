"""Tests for the P1 x P2 decomposition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecompositionError
from repro.grid.decomp import Decomposition
from repro.grid.dims import GridDims


def dims(nr=4, nth=6, ne=4, nxi=8, ns=2, nt=4):
    return GridDims(nr, nth, ne, nxi, ns, nt)
    # nc=24, nv=64, nt=4


class TestValidation:
    def test_valid_decomposition(self):
        d = Decomposition(dims(), n_proc_1=4, n_proc_2=2)
        assert d.n_proc == 8
        assert d.nc_loc == 6
        assert d.nv_loc == 16
        assert d.nt_loc == 2

    def test_p2_must_divide_nt(self):
        with pytest.raises(DecompositionError, match="nt"):
            Decomposition(dims(), 4, 3)

    def test_p1_must_divide_nv(self):
        with pytest.raises(DecompositionError, match="nv"):
            Decomposition(dims(nxi=7, ns=1, ne=1), 2, 1)

    def test_p1_must_divide_nc(self):
        with pytest.raises(DecompositionError, match="nc"):
            Decomposition(dims(nr=1, nth=3, nxi=8), 8, 1)

    def test_positive_proc_counts(self):
        with pytest.raises(DecompositionError):
            Decomposition(dims(), 0, 1)


class TestRankMapping:
    def test_local_rank_order_p1_fastest(self):
        d = Decomposition(dims(), 4, 2)
        # CGYRO convention: toroidal group occupies consecutive ranks
        assert d.group_ranks(0) == (0, 1, 2, 3)
        assert d.group_ranks(1) == (4, 5, 6, 7)
        assert d.cross_group_ranks(2) == (2, 6)

    def test_coords_roundtrip(self):
        d = Decomposition(dims(), 4, 2)
        for lr in range(d.n_proc):
            i1, i2 = d.coords_of(lr)
            assert d.local_rank_of(i1, i2) == lr

    def test_out_of_range(self):
        d = Decomposition(dims(), 4, 2)
        with pytest.raises(DecompositionError):
            d.coords_of(8)
        with pytest.raises(DecompositionError):
            d.local_rank_of(4, 0)

    def test_slices_partition_dimensions(self):
        d = Decomposition(dims(), 4, 2)
        covered_nc = [i for i1 in range(4) for i in range(*d.nc_slice(i1).indices(d.dims.nc))]
        assert covered_nc == list(range(d.dims.nc))
        covered_nv = [i for i1 in range(4) for i in range(*d.nv_slice(i1).indices(d.dims.nv))]
        assert covered_nv == list(range(d.dims.nv))
        covered_nt = [i for i2 in range(2) for i in range(*d.nt_slice(i2).indices(d.dims.nt))]
        assert covered_nt == list(range(d.dims.nt))


class TestChoose:
    def test_prefers_full_toroidal_split(self):
        d = Decomposition.choose(dims(), 8)
        assert d.n_proc_2 == 4
        assert d.n_proc_1 == 2

    def test_single_rank(self):
        d = Decomposition.choose(dims(), 1)
        assert (d.n_proc_1, d.n_proc_2) == (1, 1)

    def test_impossible_factoring_raises(self):
        # n_proc=5 cannot split nt=4 / nv=64 / nc=24
        with pytest.raises(DecompositionError, match="no valid"):
            Decomposition.choose(dims(), 5)

    def test_falls_back_to_smaller_p2(self):
        # n_proc=6: p2=2 -> p1=3 divides nc=24? yes, nv=64? no.
        # p2=1 -> p1=6: divides nc=24? yes, nv=64? no -> error
        with pytest.raises(DecompositionError):
            Decomposition.choose(dims(), 6)
        # n_proc=12 with nt=4: p2=4 -> p1=3 fails nv; p2=2 -> p1=6 fails nv;
        # p2=1 -> p1=12 fails nv -> error. Use nxi=6 (nv=48) instead:
        d = Decomposition.choose(dims(nxi=6), 12)
        assert d.n_proc_2 == 4 and d.n_proc_1 == 3

    @given(
        p1=st.sampled_from([1, 2, 4, 8]),
        p2=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=12, deadline=None)
    def test_choose_accepts_its_own_products(self, p1, p2):
        d0 = dims()
        if d0.nv % p1 or d0.nc % p1 or d0.nt % p2:
            return
        d = Decomposition.choose(d0, p1 * p2)
        assert d.n_proc == p1 * p2

    def test_describe(self):
        text = Decomposition(dims(), 4, 2).describe()
        assert "P1:4" in text and "P2:2" in text
