"""Tests for the assembled collision operator, conservation and cmat."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.collision import (
    CmatPropagator,
    CmatSignature,
    CollisionOperator,
    CollisionParams,
    SpeciesParams,
    apply_propagator,
    cmat_total_bytes,
)
from repro.collision.cmat import apply_flops, cmat_block_bytes
from repro.collision.conservation import momentum_projector
from repro.grid import ConfigGrid, GridDims, VelocityGrid


def dims(nr=2, nth=4, ne=3, nxi=4, ns=2, nt=3):
    return GridDims(nr, nth, ne, nxi, ns, nt)


def make_operator(d=None, **params):
    d = d or dims()
    p = CollisionParams(**params) if params else CollisionParams()
    return CollisionOperator(d, VelocityGrid.build(d), ConfigGrid.build(d), p)


class TestSpeciesParams:
    def test_vth(self):
        sp = SpeciesParams("x", z=1.0, mass=4.0, dens=1.0, temp=1.0)
        assert sp.vth == 0.5

    @pytest.mark.parametrize("field,value", [("mass", 0.0), ("dens", -1.0), ("temp", 0.0), ("z", 0.0)])
    def test_invalid(self, field, value):
        kwargs = dict(name="x", z=1.0, mass=1.0, dens=1.0, temp=1.0)
        kwargs[field] = value
        with pytest.raises(InputError):
            SpeciesParams(**kwargs)


class TestCollisionParams:
    def test_collision_rate_scaling(self):
        p = CollisionParams(nu=0.2)
        # electrons (lighter) collide more often than ions
        assert p.species_collision_rate(1) > p.species_collision_rate(0)

    def test_rate_proportional_to_nu(self):
        lo = CollisionParams(nu=0.1).species_collision_rate(0)
        hi = CollisionParams(nu=0.3).species_collision_rate(0)
        assert hi == pytest.approx(3 * lo)

    def test_validation(self):
        with pytest.raises(InputError):
            CollisionParams(nu=-1.0)
        with pytest.raises(InputError):
            CollisionParams(nu_profile_eps=1.5)
        with pytest.raises(InputError):
            CollisionParams(species=())


class TestMomentumConservation:
    def test_projector_is_idempotent(self):
        d = dims()
        g = VelocityGrid.build(d)
        masses = np.ones(d.nv)
        p = momentum_projector(g.flat_vpar(), g.flat_weights(), masses)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_projector_fixes_vpar(self):
        d = dims()
        g = VelocityGrid.build(d)
        vpar = g.flat_vpar()
        p = momentum_projector(vpar, g.flat_weights(), np.ones(d.nv))
        np.testing.assert_allclose(p @ vpar, vpar, atol=1e-12)

    def test_corrected_operator_conserves_momentum(self):
        op = make_operator()
        g = op.vgrid
        masses = np.array([op.params.species[s].mass for s in g.flat_species()])
        u = g.flat_weights() * masses
        c = op.base_matrix()
        # momentum functional of C f vanishes for every f:
        np.testing.assert_allclose((u * g.flat_vpar()) @ c, 0.0, atol=1e-10)

    def test_corrected_operator_still_conserves_particles(self):
        op = make_operator()
        g = op.vgrid
        w = g.flat_weights()
        # per-species particle counts are preserved only in total here
        np.testing.assert_allclose(w @ op.base_matrix(), 0.0, atol=1e-10)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_corrected_operator_dissipative(self, seed):
        op = make_operator()
        g = op.vgrid
        masses = np.array([op.params.species[s].mass for s in g.flat_species()])
        u = g.flat_weights() * masses
        c = op.base_matrix()
        rng = np.random.default_rng(seed)
        f = rng.normal(size=g.dims.nv)
        assert f @ (u * (c @ f)) <= 1e-10


class TestOperatorAssembly:
    def test_base_matrix_is_dense_across_species(self):
        """Conservation coupling makes off-species blocks nonzero."""
        op = make_operator()
        block = op.dims.n_energy * op.dims.n_xi
        cross = op.base_matrix()[:block, block:]
        assert np.abs(cross).max() > 0

    def test_without_conservation_block_diagonal(self):
        op = make_operator(conserve_momentum=False)
        block = op.dims.n_energy * op.dims.n_xi
        cross = op.base_matrix()[:block, block:]
        np.testing.assert_array_equal(cross, 0.0)

    def test_mode_zero_has_no_flr(self):
        op = make_operator()
        np.testing.assert_array_equal(op.flr_diagonal(0), 0.0)
        np.testing.assert_allclose(op.mode_matrix(0), op.base_matrix(), atol=1e-15)

    def test_flr_grows_with_mode_and_energy(self):
        op = make_operator()
        d1 = op.flr_diagonal(1)
        d2 = op.flr_diagonal(2)
        assert np.all(d1 <= 0)
        np.testing.assert_allclose(d2, 4 * d1, atol=1e-15)

    def test_nu_profile_positive_and_theta_periodic(self):
        op = make_operator()
        prof = op.nu_profile()
        assert prof.shape == (op.dims.nc,)
        assert np.all(prof > 0)
        # same theta angle at different radii -> same modulation
        nth = op.dims.n_theta
        np.testing.assert_allclose(prof[:nth], prof[nth : 2 * nth])

    def test_matrix_scales_with_profile(self):
        op = make_operator()
        prof = op.nu_profile()
        m0 = op.matrix(0, 1)
        m1 = op.matrix(1, 1)
        np.testing.assert_allclose(m0 / prof[0], m1 / prof[1], atol=1e-12)

    def test_species_count_mismatch_rejected(self):
        d = dims(ns=3)
        with pytest.raises(InputError, match="species"):
            CollisionOperator(
                d, VelocityGrid.build(d), ConfigGrid.build(d), CollisionParams()
            )

    def test_index_validation(self):
        op = make_operator()
        with pytest.raises(InputError):
            op.matrix(op.dims.nc, 0)
        with pytest.raises(InputError):
            op.mode_matrix(op.dims.nt)
        with pytest.raises(InputError):
            op.species_block(5)

    def test_base_matrix_returns_writable_copy(self):
        op = make_operator()
        m = op.base_matrix()
        m[0, 0] = 123.0
        assert op.base_matrix()[0, 0] != 123.0


class TestCmatPropagator:
    def test_block_shape(self):
        op = make_operator()
        prop = CmatPropagator(op, dt=0.05)
        blk = prop.build([0, 3], [0, 1, 2])
        assert blk.shape == (2, 3, op.dims.nv, op.dims.nv)

    def test_propagator_inverts_implicit_system(self):
        op = make_operator()
        dt = 0.04
        prop = CmatPropagator(op, dt=dt)
        blk = prop.build([2], [1])
        c = op.matrix(2, 1)
        lhs = np.eye(op.dims.nv) - dt * c
        np.testing.assert_allclose(blk[0, 0] @ lhs, np.eye(op.dims.nv), atol=1e-9)

    def test_propagator_is_stable(self):
        """Spectral radius <= 1: the implicit step never amplifies."""
        op = make_operator()
        prop = CmatPropagator(op, dt=0.1)
        blk = prop.build([0], [0, 2])
        for j in range(2):
            eigs = np.linalg.eigvals(blk[0, j])
            assert np.max(np.abs(eigs)) <= 1.0 + 1e-9

    def test_propagator_preserves_momentum_mode_zero(self):
        op = make_operator()
        g = op.vgrid
        prop = CmatPropagator(op, dt=0.1)
        blk = prop.build([1], [0])
        vpar = g.flat_vpar()
        np.testing.assert_allclose(blk[0, 0] @ vpar, vpar, atol=1e-9)

    def test_invalid_dt(self):
        with pytest.raises(InputError):
            CmatPropagator(make_operator(), dt=0.0)

    def test_invalid_ic(self):
        prop = CmatPropagator(make_operator(), dt=0.1)
        with pytest.raises(InputError):
            prop.build([999], [0])

    def test_build_flops_positive(self):
        prop = CmatPropagator(make_operator(), dt=0.1)
        assert prop.build_flops(4, 2) > 0


class TestApplyPropagator:
    def test_matches_direct_solve(self):
        rng = np.random.default_rng(3)
        op = make_operator()
        dt = 0.05
        prop = CmatPropagator(op, dt=dt)
        ics, ns = [0, 5], [0, 2]
        blk = prop.build(ics, ns)
        h = rng.normal(size=(2, op.dims.nv, 2)) + 1j * rng.normal(size=(2, op.dims.nv, 2))
        out = apply_propagator(blk, h)
        for i, ic in enumerate(ics):
            for j, n in enumerate(ns):
                direct = np.linalg.solve(
                    np.eye(op.dims.nv) - dt * op.matrix(ic, n), h[i, :, j]
                )
                np.testing.assert_allclose(out[i, :, j], direct, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(InputError):
            apply_propagator(np.zeros((1, 1, 3, 4)), np.zeros((1, 3, 1), dtype=complex))
        with pytest.raises(InputError):
            apply_propagator(np.zeros((1, 1, 3, 3)), np.zeros((2, 3, 1), dtype=complex))

    def test_flops_formula(self):
        assert apply_flops(2, 3, 4) == 8.0 * 2 * 3 * 16


class TestCmatSizeAccounting:
    def test_total_bytes(self):
        d = dims()
        assert cmat_total_bytes(d) == d.nv**2 * d.nc * d.nt * 8

    def test_block_bytes(self):
        d = dims()
        assert cmat_block_bytes(d, 2, 3) == d.nv**2 * 2 * 3 * 8

    def test_cmat_dominates_state_for_large_nv(self):
        """The nl03c property: cmat ~ nv/(2*n_buffers) x other buffers."""
        d = GridDims(4, 4, 4, 16, 4, 2)  # nv = 256
        state_bytes = d.nc * d.nv * d.nt * 16  # one complex buffer
        assert cmat_total_bytes(d) / state_bytes == d.nv / 2


class TestCmatSignature:
    def sig(self, **over):
        d = dims()
        p = CollisionParams()
        s = CmatSignature.from_parts(d, p, dt=0.05)
        if over:
            from dataclasses import replace

            s = replace(s, **over)
        return s

    def test_equal_signatures_match(self):
        assert self.sig() == self.sig()
        assert self.sig().diff(self.sig()) == ()

    def test_nu_change_breaks_match(self):
        a, b = self.sig(), self.sig(nu=0.5)
        assert a != b
        assert b.diff(a) == ("nu",)

    def test_dt_is_part_of_signature(self):
        assert self.sig().diff(self.sig(dt=0.1)) == ("dt",)

    def test_species_change_detected(self):
        new_species = (
            SpeciesParams("D", 1.0, 1.0, 0.9, 1.0),
            SpeciesParams("e", -1.0, 1 / 60, 1.0, 1.0),
        )
        assert self.sig().diff(self.sig(species=new_species)) == ("species",)

    def test_signature_is_hashable(self):
        assert len({self.sig(), self.sig(), self.sig(nu=0.9)}) == 2
