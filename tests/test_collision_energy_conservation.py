"""Tests for the energy-conserving collision option."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.collision.cmat import CmatPropagator
from repro.collision.operator import CollisionOperator
from repro.collision.params import CollisionParams
from repro.collision.conservation import apply_conservation, energy_direction
from repro.cgyro.presets import small_test
from repro.grid.config_space import ConfigGrid
from repro.grid.dims import GridDims
from repro.grid.velocity import VelocityGrid


def make_operator(**params):
    d = GridDims(2, 4, 4, 6, 2, 3)
    p = CollisionParams(**params)
    return CollisionOperator(d, VelocityGrid.build(d), ConfigGrid.build(d), p)


def species_arrays(op):
    spec = op.vgrid.flat_species()
    masses = np.array([op.params.species[s].mass for s in spec])
    temps = np.array([op.params.species[s].temp for s in spec])
    return masses, temps


class TestEnergyDirection:
    def test_orthogonal_to_constants_per_species(self):
        op = make_operator()
        masses, temps = species_arrays(op)
        spec = op.vgrid.flat_species()
        w = op.vgrid.flat_weights()
        d = energy_direction(op.vgrid.flat_energy(), w, masses, temps, spec)
        # both weightings vanish, per species and in total
        for s in range(op.dims.n_species):
            mask = spec == s
            assert abs(w[mask] @ d[mask]) < 1e-12
            assert abs((w * masses)[mask] @ d[mask]) < 1e-12
        assert abs((w * masses) @ d) < 1e-12

    def test_orthogonal_to_momentum_direction(self):
        op = make_operator()
        masses, temps = species_arrays(op)
        spec = op.vgrid.flat_species()
        w = op.vgrid.flat_weights()
        d = energy_direction(op.vgrid.flat_energy(), w, masses, temps, spec)
        vpar = op.vgrid.flat_vpar()
        assert abs(vpar @ (w * masses * d)) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(InputError):
            energy_direction(np.ones(3), np.ones(4), np.ones(4), np.ones(4))
        with pytest.raises(InputError):
            energy_direction(
                np.ones(4), np.ones(4), np.ones(4), np.ones(4), np.zeros(3, int)
            )


class TestEnergyConservingOperator:
    def test_energy_functional_annihilated(self):
        """E[C f] = 0 for every f when conserve_energy is on."""
        op = make_operator(conserve_energy=True)
        _, temps = species_arrays(op)
        w = op.vgrid.flat_weights()
        e_functional = w * temps * op.vgrid.flat_energy()
        np.testing.assert_allclose(e_functional @ op.base_matrix(), 0.0, atol=1e-10)

    def test_without_flag_energy_decays(self):
        op = make_operator(conserve_energy=False)
        _, temps = species_arrays(op)
        w = op.vgrid.flat_weights()
        e_functional = w * temps * op.vgrid.flat_energy()
        assert np.abs(e_functional @ op.base_matrix()).max() > 1e-8

    def test_momentum_and_particles_still_conserved(self):
        op = make_operator(conserve_energy=True)
        masses, _ = species_arrays(op)
        w = op.vgrid.flat_weights()
        c = op.base_matrix()
        np.testing.assert_allclose(w @ c, 0.0, atol=1e-10)
        np.testing.assert_allclose((w * masses * op.vgrid.flat_vpar()) @ c, 0.0, atol=1e-10)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_still_dissipative(self, seed):
        op = make_operator(conserve_energy=True)
        masses, _ = species_arrays(op)
        u = op.vgrid.flat_weights() * masses
        c = op.base_matrix()
        rng = np.random.default_rng(seed)
        f = rng.normal(size=op.dims.nv)
        assert f @ (u * (c @ f)) <= 1e-10

    def test_energy_only_conservation(self):
        """conserve_energy without conserve_momentum is legal."""
        op = make_operator(conserve_momentum=False, conserve_energy=True)
        _, temps = species_arrays(op)
        w = op.vgrid.flat_weights()
        e_functional = w * temps * op.vgrid.flat_energy()
        np.testing.assert_allclose(e_functional @ op.base_matrix(), 0.0, atol=1e-10)

    def test_propagator_preserves_energy_mode_zero(self):
        op = make_operator(conserve_energy=True)
        prop = CmatPropagator(op, dt=0.1)
        blk = prop.build([0], [0])
        _, temps = species_arrays(op)
        w = op.vgrid.flat_weights()
        e_functional = w * temps * op.vgrid.flat_energy()
        rng = np.random.default_rng(2)
        f = rng.normal(size=op.dims.nv)
        before = e_functional @ f
        after = e_functional @ (blk[0, 0] @ f)
        assert after == pytest.approx(before, rel=1e-9)

    def test_apply_conservation_validates_shape(self):
        op = make_operator()
        masses, temps = species_arrays(op)
        with pytest.raises(InputError):
            apply_conservation(
                np.eye(3),
                op.vgrid.flat_vpar(),
                op.vgrid.flat_energy(),
                op.vgrid.flat_weights(),
                masses,
                temps,
            )


class TestSignatureAndIo:
    def test_conserve_energy_in_signature(self):
        base = small_test()
        changed = base.with_updates(conserve_energy=True)
        assert base.cmat_signature() != changed.cmat_signature()
        assert "conserve_energy" in base.cmat_signature().diff(
            changed.cmat_signature()
        )

    def test_io_roundtrip_with_energy_flag(self, tmp_path):
        from repro.cgyro.io import parse_input_file, write_input_file

        inp = small_test(conserve_energy=True, drift_r_coeff=0.5, nonadiabatic_delta=0.1)
        path = tmp_path / "input.cgyro"
        write_input_file(inp, path)
        assert parse_input_file(path) == inp
