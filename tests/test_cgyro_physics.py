"""Physics-level tests of fields, streaming, nonlinear, reference solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InputError
from repro.cgyro.presets import small_test
from repro.cgyro.reference import SerialReference, initial_condition
from repro.cgyro.fields import FieldSolver, flr_table
from repro.cgyro.nonlinear import padded_length, toroidal_bracket
from repro.cgyro.streaming import StreamingOperator
from repro.grid.config_space import ConfigGrid
from repro.grid.velocity import VelocityGrid


@pytest.fixture(scope="module")
def setup():
    inp = small_test()
    dims = inp.grid_dims()
    vgrid = VelocityGrid.build(dims)
    cgrid = ConfigGrid.build(dims)
    return inp, dims, vgrid, cgrid


class TestFlrTable:
    def test_mode_zero_is_unity(self, setup):
        _, dims, vgrid, _ = setup
        j = flr_table(vgrid, 0.3, dims.nt)
        np.testing.assert_allclose(j[:, 0], 1.0)

    def test_decreases_with_mode_and_energy(self, setup):
        _, dims, vgrid, _ = setup
        j = flr_table(vgrid, 0.3, dims.nt)
        assert np.all(j[:, 1] <= j[:, 0] + 1e-15)
        assert np.all(j > 0)

    def test_zero_ktr_all_unity(self, setup):
        _, dims, vgrid, _ = setup
        np.testing.assert_allclose(flr_table(vgrid, 0.0, dims.nt), 1.0)


class TestFieldSolver:
    def test_dielectric_positive(self, setup):
        inp, dims, vgrid, _ = setup
        fs = FieldSolver(inp, dims, vgrid)
        assert np.all(fs.dielectric > 0)

    def test_partials_sum_to_full_moment(self, setup):
        """Chunked accumulation == single-shot moment (the AllReduce law)."""
        inp, dims, vgrid, _ = setup
        fs = FieldSolver(inp, dims, vgrid)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(dims.nc, dims.nv, dims.nt)) + 1j * rng.normal(
            size=(dims.nc, dims.nv, dims.nt)
        )
        full = fs.partial_moments(h, range(dims.nv), range(dims.nt))
        parts = sum(
            fs.partial_moments(h[:, lo : lo + 4, :], range(lo, lo + 4), range(dims.nt))
            for lo in range(0, dims.nv, 4)
        )
        np.testing.assert_allclose(parts, full, rtol=1e-12)

    def test_solve_serial_matches_manual(self, setup):
        inp, dims, vgrid, _ = setup
        fs = FieldSolver(inp, dims, vgrid)
        rng = np.random.default_rng(1)
        h = rng.normal(size=(dims.nc, dims.nv, dims.nt)) * (1 + 0j)
        f = fs.solve_serial(h)
        manual = np.einsum("cvt,vt->ct", h, fs.moment_weights[0].T) / fs.dielectric
        np.testing.assert_allclose(f.phi, manual, rtol=1e-12)
        assert f.psi_u.shape == f.phi.shape
        assert f.apar is None  # electrostatic by default

    def test_zero_state_zero_fields(self, setup):
        inp, dims, vgrid, _ = setup
        fs = FieldSolver(inp, dims, vgrid)
        f = fs.solve_serial(np.zeros((dims.nc, dims.nv, dims.nt), complex))
        assert not f.phi.any() and not f.psi_u.any()

    def test_shape_validation(self, setup):
        inp, dims, vgrid, _ = setup
        fs = FieldSolver(inp, dims, vgrid)
        with pytest.raises(InputError):
            fs.partial_moments(np.zeros((dims.nc, 3, 2)), range(4), range(2))
        with pytest.raises(InputError):
            fs.solve_serial(np.zeros((2, 2, 2)))


class TestStreamingOperator:
    def test_rhs_shape_and_linearity_in_h(self, setup):
        inp, dims, vgrid, cgrid = setup
        op = StreamingOperator(inp, dims, vgrid, cgrid)
        rng = np.random.default_rng(2)
        shape = (dims.nc, dims.nv, dims.nt)
        h1 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h2 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        zero_field = np.zeros((dims.nc, dims.nt))
        iv, nt = range(dims.nv), range(dims.nt)
        r1 = op.rhs(h1, zero_field, zero_field, iv, nt)
        r2 = op.rhs(h2, zero_field, zero_field, iv, nt)
        r12 = op.rhs(h1 + 2 * h2, zero_field, zero_field, iv, nt)
        np.testing.assert_allclose(r12, r1 + 2 * r2, rtol=1e-10)
        assert r1.shape == shape

    def test_subset_evaluation_matches_full(self, setup):
        """Computing the RHS on an (iv, nt) slice == slicing the full RHS."""
        inp, dims, vgrid, cgrid = setup
        op = StreamingOperator(inp, dims, vgrid, cgrid)
        fs = FieldSolver(inp, dims, vgrid)
        h = initial_condition(inp)
        f = fs.solve_serial(h)
        phi, psi = f.phi, f.psi_u
        full = op.rhs(h, phi, psi, range(dims.nv), range(dims.nt))
        iv_sel = range(4, 8)
        nt_sel = range(1, 3)
        part = op.rhs(
            h[:, 4:8, 1:3],
            phi[:, 1:3],
            psi[:, 1:3],
            iv_sel,
            nt_sel,
        )
        np.testing.assert_allclose(part, full[:, 4:8, 1:3], rtol=1e-12)

    def test_free_streaming_conserves_energy_without_dissipation(self, setup):
        """With no dissipation/drive, the L2 norm is conserved by the
        antisymmetric streaming + drift terms (semi-discretely)."""
        inp, dims, vgrid, cgrid = setup
        inp0 = inp.with_updates(
            upwind_coeff=0.0, upwind_field_coeff=0.0, nu=0.0
        )
        op = StreamingOperator(inp0, dims, vgrid, cgrid)
        h = initial_condition(inp0)
        zero = np.zeros((dims.nc, dims.nt))
        rhs = op.rhs(h, zero, zero, range(dims.nv), range(dims.nt))
        # d/dt ||h||^2 = 2 Re <h, rhs> = 0
        assert abs(np.vdot(h, rhs).real) < 1e-12 * np.vdot(h, h).real

    def test_upwind_term_is_dissipative(self, setup):
        inp, dims, vgrid, cgrid = setup
        quiet = inp.with_updates(drift_coeff=0.0, gamma_e=0.0, upwind_field_coeff=0.0)
        op = StreamingOperator(quiet, dims, vgrid, cgrid)
        h = initial_condition(quiet)
        zero = np.zeros((dims.nc, dims.nt))
        rhs = op.rhs(h, zero, zero, range(dims.nv), range(dims.nt))
        assert np.vdot(h, rhs).real <= 1e-12

    def test_validation(self, setup):
        inp, dims, vgrid, cgrid = setup
        op = StreamingOperator(inp, dims, vgrid, cgrid)
        zero = np.zeros((dims.nc, dims.nt))
        with pytest.raises(InputError):
            op.rhs(np.zeros((2, 2, 2)), zero, zero, range(2), range(2))


class TestNonlinear:
    def test_padded_length_three_halves_rule(self):
        assert padded_length(4) == 8
        assert padded_length(8) == 16
        assert padded_length(1) == 2
        assert padded_length(16) == 32

    def test_bracket_is_bilinear(self, setup):
        inp, dims, _, cgrid = setup
        rng = np.random.default_rng(3)
        shape = (dims.nc, 4, dims.nt)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        phi1 = rng.normal(size=(dims.nc, dims.nt)) + 0j
        phi2 = rng.normal(size=(dims.nc, dims.nt)) + 0j
        k_r = cgrid.flat_k_radial()
        kw = dict(k_theta_rho=0.3, nl_coeff=1.0)
        b1 = toroidal_bracket(h, phi1, k_r, **kw)
        b2 = toroidal_bracket(h, phi2, k_r, **kw)
        b12 = toroidal_bracket(h, phi1 + 3 * phi2, k_r, **kw)
        scale = np.abs(b12).max()
        np.testing.assert_allclose(b12, b1 + 3 * b2, rtol=1e-10, atol=1e-12 * scale)

    def test_zero_coefficient_shortcut(self, setup):
        inp, dims, _, cgrid = setup
        h = np.ones((dims.nc, 2, dims.nt), complex)
        phi = np.ones((dims.nc, dims.nt), complex)
        out = toroidal_bracket(
            h, phi, cgrid.flat_k_radial(), k_theta_rho=0.3, nl_coeff=0.0
        )
        assert not out.any()

    def test_self_bracket_of_phi_vanishes(self, setup):
        """{phi, phi} = 0: feeding h = phi (per iv) gives zero bracket."""
        inp, dims, _, cgrid = setup
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(dims.nc, dims.nt)) + 1j * rng.normal(
            size=(dims.nc, dims.nt)
        )
        h = np.repeat(phi[:, None, :], 3, axis=1)
        out = toroidal_bracket(
            h, phi, cgrid.flat_k_radial(), k_theta_rho=0.3, nl_coeff=1.0
        )
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_validation(self, setup):
        inp, dims, _, cgrid = setup
        with pytest.raises(InputError):
            toroidal_bracket(
                np.zeros((2, 2), complex),
                np.zeros((2, 2), complex),
                np.zeros(2),
                k_theta_rho=0.3,
                nl_coeff=1.0,
            )


class TestSerialReference:
    def test_initial_condition_deterministic(self):
        inp = small_test()
        a = initial_condition(inp)
        b = initial_condition(inp)
        np.testing.assert_array_equal(a, b)
        c = initial_condition(inp.with_updates(seed=2))
        assert not np.allclose(a, c)

    def test_step_advances_time(self):
        ref = SerialReference(small_test())
        ref.run(3)
        assert ref.step_count == 3
        assert ref.time == pytest.approx(3 * ref.inp.delta_t)

    def test_collision_step_dissipates(self):
        """The implicit collisional step never grows the state norm
        (mode-0), and total L2 across modes should not grow either."""
        ref = SerialReference(small_test())
        h = ref.h.copy()
        out = ref.collision_step(h)
        norm_in = np.linalg.norm(h[:, :, 0])
        norm_out = np.linalg.norm(out[:, :, 0])
        assert norm_out <= norm_in * (1 + 1e-12)

    def test_collision_preserves_momentum_mode_zero(self):
        inp = small_test()
        ref = SerialReference(inp)
        g = ref.vgrid
        masses = np.array([inp.species[s].mass for s in g.flat_species()])
        u = g.flat_weights() * masses * g.flat_vpar()
        before = ref.h[:, :, 0] @ u
        after = ref.collision_step(ref.h)[:, :, 0] @ u
        np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-18)

    @staticmethod
    def _dominant_amplification(inp, warmup=120, measure=40):
        """Power iteration on the one-step map: renormalise each step and
        return the mean per-step amplification after the transient."""
        ref = SerialReference(inp)
        for _ in range(warmup):
            ref.step()
            ref.h /= np.linalg.norm(ref.h)
        factors = []
        for _ in range(measure):
            ref.step()
            norm = np.linalg.norm(ref.h)
            factors.append(norm)
            ref.h /= norm
        return float(np.mean(factors))

    def test_strong_drive_is_linearly_unstable(self):
        """Strong gradients make the dominant mode of the full step map
        (streaming + collisions) grow; weak drive + collisions decays."""
        strong = small_test(
            dlntdr=(9.0, 9.0), nu=0.05, nonadiabatic_delta=0.3, delta_t=0.02
        )
        weak = small_test(dlntdr=(0.0, 0.0), dlnndr=(0.0, 0.0), nu=0.3, delta_t=0.02)
        assert self._dominant_amplification(strong) > 1.0001
        assert self._dominant_amplification(weak, warmup=40, measure=20) < 1.0

    def test_nonlinear_flag_changes_trajectory(self):
        lin = SerialReference(small_test(amp=0.5))
        nl = SerialReference(small_test(amp=0.5, nonlinear=True))
        lin.run(3)
        nl.run(3)
        assert not np.allclose(lin.h, nl.h)

    def test_run_validates_steps(self):
        with pytest.raises(InputError):
            SerialReference(small_test()).run(-1)

    def test_diagnostics_shapes(self):
        ref = SerialReference(small_test())
        d = ref.diagnostics()
        assert d["flux"].shape == (ref.dims.nt,)
        assert d["phi2"].shape == (ref.dims.nt,)
        assert np.all(d["phi2"] >= 0)
