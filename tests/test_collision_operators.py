"""Tests for the Lorentz / energy-diffusion building blocks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss, legval

from repro.errors import InputError
from repro.collision.energy_diff import energy_diffusion_matrix
from repro.collision.lorentz import legendre_basis, lorentz_matrix
from scipy.special import roots_genlaguerre


def pitch_grid(n):
    xi, w = leggauss(n)
    return xi, w / w.sum()


def energy_grid(n):
    e, w = roots_genlaguerre(n, 0.5)
    return e, w / w.sum()


class TestLegendreBasis:
    def test_orthonormal_under_weights(self):
        xi, w = pitch_grid(8)
        phi = legendre_basis(xi, 8)
        gram = (phi * w) @ phi.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)

    def test_first_rows(self):
        xi, _ = pitch_grid(6)
        phi = legendre_basis(xi, 3)
        np.testing.assert_allclose(phi[0], 1.0)
        np.testing.assert_allclose(phi[1], np.sqrt(3) * xi)

    def test_invalid_mode_count(self):
        xi, _ = pitch_grid(4)
        with pytest.raises(InputError):
            legendre_basis(xi, 0)


class TestLorentz:
    def test_legendre_polynomials_are_eigenvectors(self):
        xi, w = pitch_grid(10)
        lor = lorentz_matrix(xi, w)
        for l in range(10):
            coeffs = np.zeros(l + 1)
            coeffs[l] = 1.0
            p_l = legval(xi, coeffs)
            np.testing.assert_allclose(
                lor @ p_l, -0.5 * l * (l + 1) * p_l, atol=1e-9
            )

    def test_annihilates_constants(self):
        xi, w = pitch_grid(12)
        lor = lorentz_matrix(xi, w)
        np.testing.assert_allclose(lor @ np.ones(12), 0.0, atol=1e-12)

    def test_conserves_particles(self):
        """w^T L f = 0 for any f (exact particle conservation)."""
        xi, w = pitch_grid(9)
        lor = lorentz_matrix(xi, w)
        np.testing.assert_allclose(w @ lor, 0.0, atol=1e-12)

    @given(n=st.integers(min_value=2, max_value=16), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_negative_semidefinite_in_w_inner_product(self, n, seed):
        xi, w = pitch_grid(n)
        lor = lorentz_matrix(xi, w)
        rng = np.random.default_rng(seed)
        f = rng.normal(size=n)
        quad = f @ (w * (lor @ f))
        assert quad <= 1e-10

    def test_momentum_damped_at_unit_rate(self):
        """L xi = -xi (the l=1 eigenvalue is -1)."""
        xi, w = pitch_grid(8)
        lor = lorentz_matrix(xi, w)
        np.testing.assert_allclose(lor @ xi, -xi, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(InputError):
            lorentz_matrix(np.zeros(3), np.zeros(4))


class TestEnergyDiffusion:
    def test_annihilates_constants(self):
        e, w = energy_grid(6)
        mat = energy_diffusion_matrix(e, w)
        np.testing.assert_allclose(mat @ np.ones(6), 0.0, atol=1e-12)

    def test_conserves_particles(self):
        e, w = energy_grid(7)
        mat = energy_diffusion_matrix(e, w, strength=2.5)
        np.testing.assert_allclose(w @ mat, 0.0, atol=1e-12)

    @given(
        n=st.integers(min_value=2, max_value=12),
        strength=st.floats(min_value=0.0, max_value=10.0),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=30, deadline=None)
    def test_negative_semidefinite(self, n, strength, seed):
        e, w = energy_grid(n)
        mat = energy_diffusion_matrix(e, w, strength=strength)
        rng = np.random.default_rng(seed)
        f = rng.normal(size=n)
        assert f @ (w * (mat @ f)) <= 1e-10

    def test_tridiagonal_structure(self):
        e, w = energy_grid(6)
        mat = energy_diffusion_matrix(e, w)
        for i in range(6):
            for j in range(6):
                if abs(i - j) > 1:
                    assert mat[i, j] == 0.0

    def test_single_node_is_zero(self):
        mat = energy_diffusion_matrix(np.array([1.0]), np.array([1.0]))
        assert mat.shape == (1, 1) and mat[0, 0] == 0.0

    def test_zero_strength_is_zero_operator(self):
        e, w = energy_grid(5)
        np.testing.assert_array_equal(
            energy_diffusion_matrix(e, w, strength=0.0), np.zeros((5, 5))
        )

    def test_validation(self):
        e, w = energy_grid(4)
        with pytest.raises(InputError):
            energy_diffusion_matrix(e, w, strength=-1.0)
        with pytest.raises(InputError):
            energy_diffusion_matrix(e[::-1].copy(), w)
        with pytest.raises(InputError):
            energy_diffusion_matrix(e, w[:2])
