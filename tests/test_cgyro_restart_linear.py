"""Tests for checkpoint/restart and the linear solver mode."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.errors import InputError
from repro.cgyro.presets import small_test
from repro.cgyro.reference import SerialReference
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.linear import LinearSolver
from repro.cgyro.restart import load_checkpoint, save_checkpoint
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld


class TestCheckpointRestart:
    def test_serial_roundtrip(self, tmp_path):
        ref = SerialReference(small_test())
        ref.run(3)
        path = tmp_path / "ck.npz"
        ref.save_checkpoint(path)
        fresh = SerialReference(small_test())
        fresh.load_checkpoint(path)
        np.testing.assert_array_equal(fresh.h, ref.h)
        assert fresh.step_count == 3
        assert fresh.time == pytest.approx(ref.time)

    def test_resume_continues_identically(self, tmp_path):
        """run(5) == run(3) + checkpoint + run(2)."""
        straight = SerialReference(small_test())
        straight.run(5)
        first = SerialReference(small_test())
        first.run(3)
        path = tmp_path / "ck.npz"
        first.save_checkpoint(path)
        resumed = SerialReference(small_test())
        resumed.load_checkpoint(path)
        resumed.run(2)
        np.testing.assert_allclose(resumed.h, straight.h, rtol=1e-12)

    def test_distributed_roundtrip_across_rank_counts(self, tmp_path):
        """A checkpoint from 8 ranks restarts on 2 ranks."""
        inp = small_test()
        world8 = VirtualWorld(single_node(ranks=8))
        sim8 = CgyroSimulation(world8, range(8), inp)
        for _ in range(2):
            sim8.step()
        path = tmp_path / "ck.npz"
        sim8.save_checkpoint(path)

        world2 = VirtualWorld(single_node(ranks=2))
        sim2 = CgyroSimulation(world2, range(2), inp)
        sim2.load_checkpoint(path)
        np.testing.assert_array_equal(sim2.gather_h(), sim8.gather_h())
        sim2.step()
        sim8.step()
        np.testing.assert_allclose(sim2.gather_h(), sim8.gather_h(), rtol=1e-9)

    def test_serial_and_distributed_checkpoints_interchange(self, tmp_path):
        inp = small_test()
        ref = SerialReference(inp)
        ref.run(2)
        path = tmp_path / "ck.npz"
        ref.save_checkpoint(path)
        world = VirtualWorld(single_node(ranks=4))
        sim = CgyroSimulation(world, range(4), inp)
        sim.load_checkpoint(path)
        np.testing.assert_array_equal(sim.gather_h(), ref.h)

    def test_sweep_parameter_change_is_allowed(self, tmp_path):
        """Continuing with a new gradient is a legitimate study."""
        ref = SerialReference(small_test())
        ref.run(1)
        path = tmp_path / "ck.npz"
        ref.save_checkpoint(path)
        changed = SerialReference(small_test(dlntdr=(9.0, 9.0)))
        changed.load_checkpoint(path)  # must not raise

    def test_physics_incompatible_restart_rejected(self, tmp_path):
        ref = SerialReference(small_test())
        path = tmp_path / "ck.npz"
        ref.save_checkpoint(path)
        other = SerialReference(small_test(nu=0.9))
        with pytest.raises(InputError, match="cmat signature"):
            other.load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            SerialReference(small_test()).load_checkpoint(tmp_path / "no.npz")

    def test_shape_validated_on_save(self, tmp_path):
        inp = small_test()
        with pytest.raises(InputError):
            save_checkpoint(tmp_path / "x.npz", np.zeros((2, 2, 2), complex), inp, step=0, time=0.0)

    def test_negative_counters_rejected(self, tmp_path):
        inp = small_test()
        ref = SerialReference(inp)
        with pytest.raises(InputError):
            save_checkpoint(tmp_path / "x.npz", ref.h, inp, step=-1, time=0.0)

    @pytest.mark.parametrize(
        "case", ["not-a-zip", "truncated", "missing-key", "negative-step-nan-time", "inf-in-h"]
    )
    def test_garbage_refused_before_any_state_moves(self, case, tmp_path):
        """Every damaged checkpoint is one InputError naming the file;
        never a numpy / zipfile traceback or a resume at step -3."""
        inp = small_test()
        ref = SerialReference(inp)
        path = tmp_path / "ck.npz"
        ref.save_checkpoint(path)
        with np.load(path) as data:
            fields = dict(data)
        if case == "not-a-zip":
            path.write_bytes(b"\x00garbage, not an npz archive")
        elif case == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            if case == "missing-key":
                del fields["time"]
            elif case == "negative-step-nan-time":
                fields.update(step=np.int64(-5), time=np.float64("nan"))
            else:
                fields["h"] = fields["h"].copy()
                fields["h"][0, 0, 0] = np.inf
            np.savez(path, **fields)
        before = ref.h.copy()
        with pytest.raises(InputError, match=re.escape(str(path))):
            ref.load_checkpoint(path)
        np.testing.assert_array_equal(ref.h, before)
        assert (ref.step_count, ref.time) == (0, 0.0)


class TestLinearSolver:
    @pytest.fixture(scope="class")
    def driven(self):
        return small_test(
            dlntdr=(9.0, 9.0), nu=0.05, nonadiabatic_delta=0.3, delta_t=0.02
        )

    def test_requires_linear_input(self):
        with pytest.raises(InputError, match="nonlinear"):
            LinearSolver(small_test(nonlinear=True))

    def test_step_mode_matches_full_solver_slice(self, driven):
        """The per-mode map is exactly the full step restricted to n:
        the modes do not couple linearly."""
        ls = LinearSolver(driven)
        ref = SerialReference(driven)
        n = 2
        h = ref.h.copy()
        single = np.zeros_like(h)
        single[:, :, n] = h[:, :, n]
        ref.h = single
        ref.step()
        got = ls.step_mode(h[:, :, n : n + 1], n)
        np.testing.assert_allclose(got[:, :, 0], ref.h[:, :, n], rtol=1e-10, atol=1e-18)

    def test_driven_mode_is_unstable(self, driven):
        ls = LinearSolver(driven)
        res = ls.growth_rate(1)
        assert res.unstable

    def test_undriven_collisional_plasma_is_stable(self):
        quiet = small_test(dlnndr=(0.0, 0.0), dlntdr=(0.0, 0.0), nu=0.3)
        ls = LinearSolver(quiet)
        res = ls.growth_rate(1)
        assert res.gamma < 0

    def test_collisions_damp_the_mode(self):
        """A nu scan of one driven mode: more collisions, less growth.
        (These points cannot share a cmat — nu is in its signature.)"""
        inp = small_test(dlntdr=(9.0, 9.0), nonadiabatic_delta=0.3, delta_t=0.02)
        gammas = [
            LinearSolver(inp.with_updates(nu=nu)).growth_rate(1, tol=1e-6).gamma
            for nu in (0.02, 0.4)
        ]
        assert gammas[0] > gammas[1]

    def test_power_estimates_arnoldi(self, driven):
        """Power iteration is a ballpark estimator of the Arnoldi gamma
        (the spectrum is clustered by the theta-parity degeneracy)."""
        ls = LinearSolver(driven)
        p = ls.growth_rate(1, method="power")
        a = ls.growth_rate(1, method="arnoldi", tol=1e-10)
        assert p.iterations > 0
        assert p.gamma == pytest.approx(a.gamma, abs=0.05)

    def test_growth_rate_matches_time_evolution(self, driven):
        """gamma from the eigenvalue equals the measured late-time
        amplification of the stepped system."""
        ls = LinearSolver(driven)
        res = ls.growth_rate(1, method="arnoldi", tol=1e-10)
        rng = np.random.default_rng(1)
        shape = (ls.dims.nc, ls.dims.nv, 1)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for _ in range(1000):
            h = ls.step_mode(h, 1)
            h /= np.linalg.norm(h)
        growths = []
        for _ in range(20):
            h2 = ls.step_mode(h, 1)
            growths.append(np.linalg.norm(h2))
            h = h2 / growths[-1]
        measured_gamma = np.log(np.mean(growths)) / driven.delta_t
        # the spectrum is clustered (theta-parity pair + a close third
        # eigenvalue), so finite-time power iteration sees a mixture
        assert measured_gamma == pytest.approx(res.gamma, abs=0.01)

    def test_spectrum_covers_requested_modes(self, driven):
        ls = LinearSolver(driven)
        spec = ls.spectrum(modes=[1, 2], tol=1e-6)
        assert [r.n_mode for r in spec] == [1, 2]

    def test_validation(self, driven):
        ls = LinearSolver(driven)
        with pytest.raises(InputError):
            ls.step_mode(np.zeros((1, 1, 1), complex), 0)
        with pytest.raises(InputError):
            ls.step_mode(np.zeros((ls.dims.nc, ls.dims.nv, 1), complex), 99)
        with pytest.raises(InputError):
            ls.growth_rate(1, method="bogus")
