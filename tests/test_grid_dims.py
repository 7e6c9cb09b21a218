"""Tests for GridDims, VelocityGrid, ConfigGrid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_genlaguerre

from repro.errors import InputError
from repro.grid.config_space import ConfigGrid
from repro.grid.dims import GridDims
from repro.grid.velocity import _GENLAGUERRE_HALF, VelocityGrid


def dims(nr=4, nth=6, ne=4, nxi=8, ns=2, nt=4):
    return GridDims(
        n_radial=nr, n_theta=nth, n_energy=ne, n_xi=nxi, n_species=ns, n_toroidal=nt
    )


class TestGridDims:
    def test_collapsed_dimensions(self):
        d = dims()
        assert d.nc == 24
        assert d.nv == 64
        assert d.nt == 4

    def test_invalid_resolution_rejected(self):
        with pytest.raises(InputError):
            dims(nr=0)
        with pytest.raises(InputError):
            GridDims(4, 4, 4, 4, 4, -1)

    def test_describe(self):
        assert "nc=24" in dims().describe()


class TestVelocityGrid:
    def test_weights_sum_to_one_per_species(self):
        g = VelocityGrid.build(dims())
        w = g.flat_weights()
        per_species = w.reshape(2, -1).sum(axis=1)
        np.testing.assert_allclose(per_species, 1.0, rtol=1e-12)

    def test_xi_nodes_inside_interval(self):
        g = VelocityGrid.build(dims())
        assert np.all(np.abs(g.xi) < 1.0)

    def test_energy_nodes_positive(self):
        g = VelocityGrid.build(dims())
        assert np.all(g.energy > 0)

    def test_flat_arrays_have_nv_length(self):
        d = dims()
        g = VelocityGrid.build(d)
        for arr in (g.flat_energy(), g.flat_xi(), g.flat_species(), g.flat_weights(), g.flat_vpar()):
            assert arr.shape == (d.nv,)

    def test_flat_species_blocks(self):
        d = dims(ns=3)
        g = VelocityGrid.build(d)
        s = g.flat_species()
        block = d.n_energy * d.n_xi
        assert list(s[:block]) == [0] * block
        assert list(s[-block:]) == [2] * block

    def test_vpar_moment_of_maxwellian_is_zero(self):
        """Odd moments vanish by symmetry of the xi grid."""
        d = dims()
        g = VelocityGrid.build(d)
        moment = (g.flat_weights() * g.flat_vpar()).sum()
        assert abs(moment) < 1e-14

    def test_energy_moment_matches_gamma_ratio(self):
        """<e> under weight sqrt(e)e^{-e}/Gamma(3/2) is 3/2 (exact)."""
        g = VelocityGrid.build(dims(ne=8))
        w = g.flat_weights()
        e = g.flat_energy()
        per_species = (w * e).reshape(2, -1).sum(axis=1)
        np.testing.assert_allclose(per_species, 1.5, rtol=1e-12)

    def test_n_xi_one_rejected(self):
        with pytest.raises(InputError):
            VelocityGrid.build(dims(nxi=1))

    def test_the_table_is_roots_genlaguerre_bytes_for_1_to_16_nodes(self):
        lines = _GENLAGUERRE_HALF.read_text().splitlines()
        assert len(lines) == 17  # a header, then n = 1..16
        for n in range(1, 17):
            table = np.array([float.fromhex(x) for x in lines[n].split()])
            assert table.tobytes() == np.concatenate(roots_genlaguerre(n, 0.5)).tobytes()

    @pytest.mark.parametrize("ne", [1, 8, 16, 17])
    def test_energy_quadrature_is_scipys_bytes_in_and_past_the_table(self, ne):
        e, w = roots_genlaguerre(ne, 0.5)
        g = VelocityGrid.build(dims(ne=ne))
        assert g.energy.tobytes() == e.tobytes()
        assert g.energy_weights.tobytes() == (w / w.sum()).tobytes()

    def test_built_once_per_dims_with_read_only_arrays(self):
        g = VelocityGrid.build(dims())
        assert VelocityGrid.build(dims()) is g
        assert VelocityGrid.build(dims(nt=5)) is not g
        for a in (g.xi, g.xi_weights, g.energy, g.energy_weights):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestConfigGrid:
    def test_theta_grid_periodic_interval(self):
        g = ConfigGrid.build(dims())
        assert g.theta[0] == pytest.approx(-np.pi)
        assert g.theta[-1] < np.pi
        assert g.d_theta == pytest.approx(2 * np.pi / 6)

    def test_k_radial_centered(self):
        g = ConfigGrid.build(dims(nr=4))
        assert list(g.k_radial / (2 * np.pi)) == [-2, -1, 0, 1]

    def test_centered_derivative_of_harmonic(self):
        """d/dtheta of exp(i m theta) -> i m with spectral-grade accuracy
        as resolution grows; at 2nd order the discrete symbol is
        i sin(m h)/h."""
        d = dims(nth=32)
        g = ConfigGrid.build(d)
        m = 2
        f = np.exp(1j * m * g.flat_theta())
        df = g.d_dtheta_centered(f[:, None])[:, 0]
        h = g.d_theta
        expected = 1j * np.sin(m * h) / h * f
        np.testing.assert_allclose(df, expected, rtol=1e-10)

    def test_derivative_of_constant_is_zero(self):
        g = ConfigGrid.build(dims())
        f = np.ones((dims().nc, 3))
        np.testing.assert_allclose(g.d_dtheta_centered(f), 0.0)
        np.testing.assert_allclose(g.d_dtheta_upwind_diss(f), 0.0)

    def test_upwind_dissipation_is_negative_semidefinite(self):
        """sum f* D f <= 0 for the dissipation stencil."""
        rng = np.random.default_rng(7)
        d = dims()
        g = ConfigGrid.build(d)
        for _ in range(5):
            f = rng.normal(size=(d.nc,)) + 1j * rng.normal(size=(d.nc,))
            quad = np.vdot(f, g.d_dtheta_upwind_diss(f[:, None])[:, 0]).real
            assert quad <= 1e-12

    def test_shape_validation(self):
        g = ConfigGrid.build(dims())
        with pytest.raises(InputError):
            g.d_dtheta_centered(np.ones((5, 2)))

    def test_invalid_box_length(self):
        with pytest.raises(InputError):
            ConfigGrid.build(dims(), box_length=0.0)

    @given(m=st.integers(min_value=0, max_value=5), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_derivative_linearity(self, m, seed):
        rng = np.random.default_rng(seed)
        d = dims(nth=16)
        g = ConfigGrid.build(d)
        a, b = rng.normal(size=2)
        f1 = rng.normal(size=(d.nc, 2))
        f2 = rng.normal(size=(d.nc, 2))
        lhs = g.d_dtheta_centered(a * f1 + b * f2)
        rhs = a * g.d_dtheta_centered(f1) + b * g.d_dtheta_centered(f2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
