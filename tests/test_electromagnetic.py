"""Tests for the electromagnetic (A_parallel) extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InputError
from repro.cgyro.presets import small_test
from repro.cgyro.reference import SerialReference, initial_condition
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.fields import FieldSolver
from repro.cgyro.linear import LinearSolver
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble


def em_input(**kw):
    defaults = dict(beta_e=0.01)
    defaults.update(kw)
    return small_test(**defaults)


class TestFieldSolverEm:
    def test_es_run_has_no_apar(self):
        from repro.grid.velocity import VelocityGrid

        inp = small_test()
        fs = FieldSolver(inp, inp.grid_dims(), VelocityGrid.build(inp.grid_dims()))
        assert not fs.electromagnetic
        assert fs.n_moments == 2
        f = fs.solve_serial(initial_condition(inp))
        assert f.apar is None

    def test_em_run_solves_apar(self):
        from repro.grid.velocity import VelocityGrid

        inp = em_input()
        dims = inp.grid_dims()
        fs = FieldSolver(inp, dims, VelocityGrid.build(dims))
        assert fs.electromagnetic
        assert fs.n_moments == 3
        f = fs.solve_serial(initial_condition(inp))
        assert f.apar is not None
        assert f.apar.shape == f.phi.shape
        assert np.abs(f.apar[:, 1:]).max() > 0

    def test_apar_dielectric_scales_inverse_beta(self):
        from repro.grid.velocity import VelocityGrid

        lo = em_input(beta_e=0.01)
        hi = em_input(beta_e=0.04)
        dims = lo.grid_dims()
        vg = VelocityGrid.build(dims)
        d_lo = FieldSolver(lo, dims, vg).apar_dielectric
        d_hi = FieldSolver(hi, dims, vg).apar_dielectric
        # stiffer response at lower beta (weaker A_par) for n >= 1
        assert np.all(d_lo[1:] > d_hi[1:])

    def test_current_moment_vanishes_for_even_state(self):
        """An even-in-vpar distribution carries no parallel current."""
        from repro.grid.velocity import VelocityGrid

        inp = em_input()
        dims = inp.grid_dims()
        vg = VelocityGrid.build(dims)
        fs = FieldSolver(inp, dims, vg)
        h = np.ones((dims.nc, dims.nv, dims.nt), complex)  # even in vpar
        f = fs.solve_serial(h)
        np.testing.assert_allclose(f.apar, 0.0, atol=1e-14)

    def test_assemble_validates_moment_count(self):
        from repro.grid.velocity import VelocityGrid

        inp = em_input()
        dims = inp.grid_dims()
        fs = FieldSolver(inp, dims, VelocityGrid.build(dims))
        with pytest.raises(InputError, match="moment rows"):
            fs.assemble(np.zeros((2, dims.nc, dims.nt), complex), range(dims.nt))


class TestEmDynamics:
    def test_beta_zero_matches_legacy_exactly(self):
        """beta_e = 0 must be bit-identical to the electrostatic path."""
        es = SerialReference(small_test())
        legacy = SerialReference(small_test(beta_e=0.0))
        for _ in range(2):
            es.step()
            legacy.step()
        np.testing.assert_array_equal(es.h, legacy.h)

    def test_em_changes_the_trajectory(self):
        es = SerialReference(small_test())
        em = SerialReference(em_input())
        for _ in range(2):
            es.step()
            em.step()
        assert not np.allclose(es.h, em.h)

    def test_distributed_matches_reference_em(self):
        inp = em_input()
        ref = SerialReference(inp)
        world = VirtualWorld(single_node(ranks=8))
        sim = CgyroSimulation(world, range(8), inp)
        for _ in range(2):
            ref.step()
            sim.step()
        np.testing.assert_allclose(sim.gather_h(), ref.h, rtol=1e-9, atol=1e-18)

    def test_em_adds_third_allreduce_moment(self):
        world = VirtualWorld(single_node(ranks=8))
        sim = CgyroSimulation(world, range(8), em_input())
        sim.streaming_phase()
        n_chunks = len(sim._field_chunks())
        events = world.trace.filter(kind="allreduce", category="str_comm")
        assert len(events) == 4 * n_chunks * 3 * sim.decomp.n_proc_2

    def test_xgyro_members_match_standalone_em(self):
        inputs = [em_input(dlntdr=(g, g)) for g in (2.0, 3.0)]
        world = VirtualWorld(single_node(ranks=16))
        ens = XgyroEnsemble(world, inputs)
        refs = [SerialReference(inp) for inp in inputs]
        ens.step()
        for r in refs:
            r.step()
        for member, ref in zip(ens.members, refs):
            np.testing.assert_allclose(member.gather_h(), ref.h, rtol=1e-9, atol=1e-18)

    def test_beta_is_a_sweep_parameter(self):
        """EM and ES members may share one cmat (beta not in signature)."""
        base = small_test()
        assert base.cmat_signature() == base.with_updates(beta_e=0.02).cmat_signature()

    def test_linear_growth_changes_with_beta(self):
        drive = dict(dlntdr=(9.0, 9.0), nu=0.05, nonadiabatic_delta=0.3, delta_t=0.02)
        es = LinearSolver(small_test(**drive)).growth_rate(1, tol=1e-7)
        em = LinearSolver(small_test(beta_e=0.05, **drive)).growth_rate(1, tol=1e-7)
        assert es.gamma != pytest.approx(em.gamma, abs=1e-6)

    def test_negative_beta_rejected(self):
        with pytest.raises(InputError):
            small_test(beta_e=-0.1)

    def test_em_io_roundtrip(self, tmp_path):
        from repro.cgyro.io import parse_input_file, write_input_file

        inp = em_input()
        path = tmp_path / "input.cgyro"
        write_input_file(inp, path)
        assert parse_input_file(path) == inp
