"""Tests for CgyroInput and presets."""

from __future__ import annotations

import pytest

from repro.errors import InputError
from repro.cgyro.params import CgyroInput
from repro.cgyro.presets import linear_benchmark, nl03c_scaled, small_test
from repro.collision.cmat import cmat_total_bytes
from repro.collision.params import SpeciesParams


class TestValidation:
    def test_defaults_are_valid(self):
        inp = CgyroInput()
        assert inp.grid_dims().nv == 64

    def test_species_count_must_match(self):
        with pytest.raises(InputError):
            CgyroInput(n_species=3)

    def test_gradient_length_must_match_species(self):
        with pytest.raises(InputError):
            CgyroInput(dlnndr=(1.0,))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("delta_t", 0.0),
            ("steps_per_report", 0),
            ("k_theta_rho", -0.1),
            ("lambda_debye", 0.0),
            ("upwind_coeff", -1.0),
            ("amp", 0.0),
            ("nu", -0.5),
            # a NaN passes every range check; each float must be finite
            ("delta_t", float("nan")),
            ("amp", float("nan")),
            ("nu", float("inf")),
            ("gamma_e", float("-inf")),
            ("dlntdr", (3.0, float("nan"))),
            ("species", (SpeciesParams("i", 1.0, float("nan"), 1.0, 1.0),) * 2),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(InputError):
            CgyroInput(**{field: value})

    def test_with_updates_creates_modified_copy(self):
        base = small_test()
        swept = base.with_updates(dlntdr=(4.0, 4.0))
        assert swept.dlntdr == (4.0, 4.0)
        assert base.dlntdr == (3.0, 3.0)
        assert swept.n_radial == base.n_radial


class TestSignatureSeparation:
    """The paper's core observation, as a contract."""

    def test_gradient_sweep_preserves_signature(self):
        base = small_test()
        swept = base.with_updates(dlntdr=(5.0, 5.0), dlnndr=(0.5, 0.5))
        assert base.cmat_signature() == swept.cmat_signature()

    def test_shear_and_box_do_not_affect_signature(self):
        base = small_test()
        assert base.cmat_signature() == base.with_updates(gamma_e=0.3).cmat_signature()
        assert (
            base.cmat_signature()
            == base.with_updates(box_length=2.0).cmat_signature()
        )

    def test_seed_amp_nonlinear_do_not_affect_signature(self):
        base = small_test()
        for change in (dict(seed=99), dict(amp=1e-2), dict(nonlinear=True)):
            assert base.cmat_signature() == base.with_updates(**change).cmat_signature()

    def test_nu_change_breaks_signature(self):
        base = small_test()
        assert base.cmat_signature() != base.with_updates(nu=0.9).cmat_signature()

    def test_dt_change_breaks_signature(self):
        base = small_test()
        assert base.cmat_signature() != base.with_updates(delta_t=0.5).cmat_signature()

    def test_resolution_change_breaks_signature(self):
        base = small_test()
        assert (
            base.cmat_signature()
            != base.with_updates(n_xi=base.n_xi * 2).cmat_signature()
        )


class TestPresets:
    def test_small_test_dims(self):
        d = small_test().grid_dims()
        assert (d.nc, d.nv, d.nt) == (16, 16, 4)

    def test_linear_benchmark_dims(self):
        d = linear_benchmark().grid_dims()
        assert (d.nc, d.nv, d.nt) == (64, 64, 8)

    def test_nl03c_scaled_dims(self):
        d = nl03c_scaled().grid_dims()
        assert (d.nc, d.nv, d.nt) == (128, 256, 8)
        assert nl03c_scaled().nonlinear

    def test_nl03c_cmat_dominance(self):
        """cmat ~10x the (~11.5 complex-buffer) solver state."""
        d = nl03c_scaled().grid_dims()
        state = 11.5 * d.nc * d.nv * d.nt * 16
        ratio = cmat_total_bytes(d) / state
        assert 9.0 < ratio < 13.0

    def test_preset_overrides(self):
        inp = nl03c_scaled(nonlinear=False, steps_per_report=3)
        assert not inp.nonlinear
        assert inp.steps_per_report == 3
