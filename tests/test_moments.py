"""Tests for the velocity-space moment diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InputError
from repro.cgyro.presets import small_test
from repro.cgyro.reference import initial_condition
from repro.cgyro.fields import FieldSolver
from repro.cgyro.moments import FluidMoments, MomentCalculator
from repro.grid.velocity import VelocityGrid


@pytest.fixture(scope="module")
def calc():
    inp = small_test()
    dims = inp.grid_dims()
    fields = FieldSolver(inp, dims, VelocityGrid.build(dims))
    return MomentCalculator(fields)


class TestMomentDefinitions:
    def test_constant_distribution_has_unit_density(self, calc):
        """h = 1 integrates to density 1, zero flow, zero temperature
        perturbation (Maxwellian normalisation), at n = 0 where J = 1."""
        d = calc.dims
        h = np.ones((d.nc, d.nv, d.nt), complex)
        m = calc.compute(h)
        np.testing.assert_allclose(m.density[:, :, 0], 1.0, rtol=1e-12)
        np.testing.assert_allclose(m.parallel_flow[:, :, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(m.temperature[:, :, 0], 0.0, atol=1e-12)

    def test_vpar_distribution_has_unit_flow(self, calc):
        """h = vpar gives flow 1 and no density, by the flow norm."""
        d = calc.dims
        vpar = calc.fields.vgrid.flat_vpar()
        h = np.broadcast_to(
            vpar[None, :, None], (d.nc, d.nv, d.nt)
        ).astype(complex)
        m = calc.compute(h)
        np.testing.assert_allclose(m.parallel_flow[:, :, 0], 1.0, rtol=1e-10)
        np.testing.assert_allclose(m.density[:, :, 0], 0.0, atol=1e-12)

    def test_energy_distribution_has_temperature(self, calc):
        """h = e - 3/2 has zero density and positive temperature."""
        d = calc.dims
        e = calc.fields.vgrid.flat_energy()
        h = np.broadcast_to(
            (e - 1.5)[None, :, None], (d.nc, d.nv, d.nt)
        ).astype(complex)
        m = calc.compute(h)
        np.testing.assert_allclose(m.density[:, :, 0], 0.0, atol=1e-12)
        assert np.all(m.temperature[:, :, 0].real > 0)

    def test_flr_damps_finite_n_moments(self, calc):
        d = calc.dims
        h = np.ones((d.nc, d.nv, d.nt), complex)
        m = calc.compute(h)
        # J < 1 for n >= 1 reduces the gyro-density below unity
        assert np.all(m.density[:, :, 1].real < 1.0)


class TestPartialSums:
    def test_partition_sums_to_full(self, calc):
        d = calc.dims
        rng = np.random.default_rng(0)
        h = rng.normal(size=(d.nc, d.nv, d.nt)) + 1j * rng.normal(
            size=(d.nc, d.nv, d.nt)
        )
        full = calc.compute(h)
        half = d.nv // 2
        a = calc.partial(h[:, :half, :], range(half), range(d.nt))
        b = calc.partial(h[:, half:, :], range(half, d.nv), range(d.nt))
        for field in ("density", "parallel_flow", "temperature"):
            np.testing.assert_allclose(
                getattr(a, field) + getattr(b, field), getattr(full, field), rtol=1e-12
            )

    def test_shapes_and_species_axis(self, calc):
        d = calc.dims
        m = calc.compute(initial_condition(small_test()))
        assert m.density.shape == (d.n_species, d.nc, d.nt)

    def test_validation(self, calc):
        with pytest.raises(InputError):
            calc.compute(np.zeros((2, 2, 2), complex))
        with pytest.raises(InputError):
            calc.partial(np.zeros((1, 1, 1), complex), range(2), range(1))


class TestPhysicalConsistency:
    def test_collisions_relax_temperature_perturbation(self):
        """An energy-weighted perturbation decays under the collision
        propagator while density stays put (n = 0)."""
        from repro.collision.cmat import CmatPropagator, apply_propagator
        from repro.collision.operator import CollisionOperator
        from repro.grid.config_space import ConfigGrid

        inp = small_test(nu=0.5)
        dims = inp.grid_dims()
        vg = VelocityGrid.build(dims)
        fields = FieldSolver(inp, dims, vg)
        calc = MomentCalculator(fields)
        op = CollisionOperator(dims, vg, ConfigGrid.build(dims), inp.collision_params())
        prop = CmatPropagator(op, dt=0.5)
        blk = prop.build(range(dims.nc), [0])

        e = vg.flat_energy()
        h = np.broadcast_to(
            (e - 1.5)[None, :, None], (dims.nc, dims.nv, 1)
        ).astype(complex).copy()

        out = apply_propagator(blk, h)
        before = calc.partial(h, range(dims.nv), [0])
        after = calc.partial(out, range(dims.nv), [0])
        assert np.abs(after.temperature).max() < np.abs(before.temperature).max()
        np.testing.assert_allclose(
            after.density, before.density, rtol=1e-8, atol=1e-12
        )
