"""The prepared str and nl kernels against their inline forms.

``StreamingOperator.rhs`` and ``FieldSolver.partial_moments`` derive
their coefficient tables once per ``(iv, nt)`` index set; the theta
stencils read a halo-padded copy instead of ``np.roll`` copies; the
full-size drift table is shared between operators; and the nl phase
runs the bracket once per i1 column.  Every one of these must keep
every bit, so each is held ``np.array_equal`` to the form it replaced,
kept here as the reference.
"""

from __future__ import annotations

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import InputError
from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.fields import FieldSolver
from repro.cgyro.nonlinear import toroidal_bracket
from repro.cgyro.streaming import StreamingOperator
from repro.grid.config_space import ConfigGrid
from repro.grid.dims import GridDims
from repro.grid.velocity import VelocityGrid
from repro.grid.layouts import nc_nl_slice
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _roll_centered(cgrid, values):
    d = cgrid.dims
    v = values.reshape((d.n_radial, d.n_theta) + values.shape[1:])
    out = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * cgrid.d_theta)
    return out.reshape(values.shape)


def _roll_upwind(cgrid, values):
    d = cgrid.dims
    v = values.reshape((d.n_radial, d.n_theta) + values.shape[1:])
    out = (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / (
        2.0 * cgrid.d_theta
    )
    return out.reshape(values.shape)


def _inline_rhs(op, h, phi, psi_u, iv_idx, nt_idx, apar=None):
    """The right-hand side as it was evaluated before it was prepared:
    every table gathered and every product formed on each call."""
    inp = op.inp
    iv, nt = np.asarray(iv_idx), np.asarray(nt_idx)
    j = op.j_table[np.ix_(iv, nt)]
    vth = op.vth[iv][None, :, None]
    vpar = op.vpar[iv][None, :, None]
    avpar = op.abs_vpar[iv][None, :, None]
    if apar is not None:
        pot = phi[:, None, :] - vth * vpar * apar[:, None, :]
    else:
        pot = phi[:, None, :]
    chi = h + op.zt[iv][None, :, None] * j[None, :, :] * pot
    out = -vth * vpar * _roll_centered(op.cgrid, chi)
    out += inp.upwind_coeff * vth * avpar * _roll_upwind(op.cgrid, h)
    if inp.upwind_field_coeff != 0.0:
        diss_u = _roll_upwind(op.cgrid, psi_u)
        out -= (
            inp.upwind_field_coeff * vth * avpar * j[None, :, :] * diss_u[:, None, :]
        )
    out += 1j * (op.omega_star[np.ix_(iv, nt)] * j)[None, :, :] * pot
    omega = (
        op.cos_theta[:, None, None] * op.drift_vn[np.ix_(iv, nt)][None, :, :]
        + op.drift_radial[:, None, None] * op.energy[iv][None, :, None]
        + op.shear_n[nt][None, None, :]
    )
    out -= 1j * omega * h
    return out


def _tables(op, iv, nt):
    """The operator's prepared tables of a set (built if not yet)."""
    return op._tables.get(iv, nt, op._prepare)


def _operator(**overrides):
    inp = small_test(**overrides)
    dims = inp.grid_dims()
    cgrid = ConfigGrid.build(dims, box_length=inp.box_length)
    return StreamingOperator(inp, dims, VelocityGrid.build(dims), cgrid)


class TestHaloStencils:
    @pytest.mark.parametrize("n_theta", [1, 2, 3, 8])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("trailing", [(), (3,), (2, 5)])
    def test_equal_to_roll(self, n_theta, dtype, trailing):
        g = ConfigGrid.build(GridDims(3, n_theta, 2, 4, 1, 2))
        rng = np.random.default_rng(n_theta)
        shape = (g.dims.nc,) + trailing
        values = rng.normal(size=shape).astype(dtype)
        if dtype is complex:
            values += 1j * rng.normal(size=shape)
        for got, want in (
            (g.d_dtheta_centered(values), _roll_centered(g, values)),
            (g.d_dtheta_upwind_diss(values), _roll_upwind(g, values)),
        ):
            assert got.shape == shape and got.dtype == values.dtype
            assert np.array_equal(got, want)

    def test_strided_input_and_no_roll_under_src(self):
        g = ConfigGrid.build(GridDims(4, 4, 2, 4, 2, 4))
        h = _complex(np.random.default_rng(0), (16, 16, 4))[:, ::2, 1:3]
        assert np.array_equal(g.d_dtheta_centered(h), _roll_centered(g, h))
        assert np.array_equal(g.d_dtheta_upwind_diss(h), _roll_upwind(g, h))
        src = Path(repro.__file__).parent
        assert not [p for p in src.rglob("*.py") if "np.roll" in p.read_text()]


class TestPreparedRhs:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"beta_e": 0.01}, {"upwind_field_coeff": 0.0}, {"beta_e": 0.01, "gamma_e": 0.2}],
    )
    @pytest.mark.parametrize(
        "sets", ["full", "strided", "single_mode"]
    )
    def test_equal_to_the_inline_body(self, overrides, sets):
        op = _operator(**overrides)
        d = op.dims
        iv, nt = {
            "full": (range(d.nv), range(d.nt)),
            "strided": (range(1, d.nv, 3), [0, 2, 3]),
            "single_mode": (range(d.nv), [2]),
        }[sets]
        rng = np.random.default_rng(len(sets))
        niv, nnt = len(iv), len(nt)
        h = _complex(rng, (d.nc, niv, nnt))
        phi, psi, apar = (_complex(rng, (d.nc, nnt)) for _ in range(3))
        apar = apar if op.inp.beta_e > 0 else None
        for _ in range(2):  # the first call prepares, the second reuses
            got = op.rhs(h, phi, psi, iv, nt, apar=apar)
            assert np.array_equal(got, _inline_rhs(op, h, phi, psi, iv, nt, apar))
        # real (zero) fields, as the physics tests pass them
        zero = np.zeros((d.nc, nnt))
        assert np.array_equal(
            op.rhs(h, zero, zero, iv, nt), _inline_rhs(op, h, zero, zero, iv, nt)
        )

    def test_every_table_is_read_only(self):
        op = _operator(beta_e=0.01)
        tables = _tables(op, range(op.dims.nv), [1, 3])
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0
        fs = FieldSolver(op.inp, op.dims, op.vgrid)
        assert not fs._weights.get(range(4), [0], fs._prepare_weights).flags.writeable


class TestBadIndexSets:
    """A bad set is refused where its tables are prepared, instead of
    reading wrapped-around or out-of-range coefficients."""

    @pytest.mark.parametrize(
        "iv, nt, match",
        [
            ([-1, -2], [-1], "must lie in"),
            ([0, 1], [4], "must lie in"),
            ([0, 32], [0], "must lie in"),
            ([1, 1], [0], "must not repeat"),
            ([0, 1], [2, 2], "must not repeat"),
            ([0.0, 1.0], [0], "integers"),
        ],
    )
    def test_rhs_and_partial_moments_refuse(self, iv, nt, match):
        op = _operator()
        fs = FieldSolver(op.inp, op.dims, op.vgrid)
        h = np.zeros((op.dims.nc, len(iv), len(nt)), complex)
        field = np.zeros((op.dims.nc, len(nt)), complex)
        with pytest.raises(InputError, match=match):
            op.rhs(h, field, field, iv, nt)
        with pytest.raises(InputError, match=match):
            fs.partial_moments(h, iv, nt)


class TestPartialMomentsOut:
    def test_out_is_written_and_equal(self):
        op = _operator(beta_e=0.01)
        fs = FieldSolver(op.inp, op.dims, op.vgrid)
        h = _complex(np.random.default_rng(1), (op.dims.nc, 16, 4))[:, 8:12, :]
        iv = range(8, 12)
        want = fs.partial_moments(h, iv, range(4))
        rows = np.zeros((2,) + want.shape, complex)
        target = rows[1]
        assert fs.partial_moments(h, iv, range(4), out=target) is target
        assert np.array_equal(rows[1], want) and not rows[0].any()
        with pytest.raises(InputError, match="out must be"):
            fs.partial_moments(h, iv, range(4), out=rows[1, :2])
        with pytest.raises(InputError, match="out must be"):
            fs.partial_moments(h, iv, range(4), out=rows[:, 0].transpose(1, 0, 2))


def _per_chunk_fields(sim, state):
    """The field solve with one moments call per (i1, chunk), reduced
    over the i1 rows and summed chunk by chunk, as the solver did before
    each column's chunks became one call."""
    d = sim.dims
    acc = np.zeros((sim.fields.n_moments, d.nc, d.nt), complex)
    for c in sim.costs.chunks:
        partial = np.empty((sim.decomp.n_proc_1,) + acc.shape, complex)
        for i1, iv in enumerate(sim._nv_ranges):
            sl = slice(iv.start + c.start, iv.start + c.stop)
            sim.fields.partial_moments(
                state[:, sl, :], sim._all_iv[sl], sim._all_nt, out=partial[i1]
            )
        acc += partial.sum(axis=0)
    return sim.fields.assemble(acc, sim._all_nt)


class TestChunkedMoments:
    """One ``partial_moments`` call over C equal runs is, run for run,
    the C calls it replaces."""

    @pytest.mark.parametrize("overrides", [{}, {"beta_e": 0.01}], ids=["es", "em"])
    @pytest.mark.parametrize("nt", [slice(2, 3), slice(0, 4)], ids=["nnt1", "full_nt"])
    @pytest.mark.parametrize("runs, run", [(4, 4), (2, 3), (3, 5), (1, 6)])
    def test_equal_to_one_call_per_run(self, overrides, nt, runs, run):
        op = _operator(**overrides)
        fs = FieldSolver(op.inp, op.dims, op.vgrid)
        d = op.dims
        state = _complex(np.random.default_rng(runs * run), (d.nc, d.nv, d.nt))
        lo = d.nv - runs * run
        iv, nts = range(lo, d.nv), range(*nt.indices(d.nt))
        h = state[:, lo:, nt]
        out = np.full((runs, fs.n_moments, d.nc, len(nts)), np.nan, complex)
        assert fs.partial_moments(h, iv, nts, out=out) is out
        for k in range(runs):
            ks = slice(k * run, (k + 1) * run)
            assert np.array_equal(out[k], fs.partial_moments(h[:, ks], iv[ks], nts))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (lambda shape: np.empty(shape, np.complex64), "out must be"),
            (lambda shape: np.empty(shape[:-1] + (2 * shape[-1],), complex)[..., ::2], "out must be"),
            (lambda shape: np.empty((3,) + shape[1:], complex), "do not split"),
            (lambda shape: np.empty((0,) + shape[1:], complex), "do not split"),
            (lambda shape: np.empty(shape[:1] + (1,) + shape[2:], complex), "out must be"),
        ],
        ids=["dtype", "strided", "uneven", "no_runs", "n_mom"],
    )
    def test_a_bad_out_is_refused(self, bad, match):
        op = _operator()
        fs = FieldSolver(op.inp, op.dims, op.vgrid)
        d = op.dims
        h = np.zeros((d.nc, 8, d.nt), complex)
        with pytest.raises(InputError, match=match):
            fs.partial_moments(h, range(8), range(d.nt), out=bad((2, 2, d.nc, d.nt)))

    @pytest.mark.parametrize("overlap", ["off", "str"])
    def test_a_shorter_tail_chunk_gets_one_more_call(self, overlap, monkeypatch):
        # nv = 40 over P1 = 4 columns: ten points a rank, chunks 4, 4, 2
        sim = CgyroSimulation(
            VirtualWorld(single_node(ranks=8)), range(8),
            small_test(n_energy=5, n_toroidal=2), overlap=overlap,
        )
        assert [len(c) for c in sim.costs.chunks] == [4, 4, 2]
        calls = []
        real = FieldSolver.partial_moments

        def counting(self, h, iv, nt, **kw):
            calls.append(kw["out"].shape[0])
            return real(self, h, iv, nt, **kw)

        monkeypatch.setattr(FieldSolver, "partial_moments", counting)
        state = _complex(np.random.default_rng(3), sim.h_global.shape)
        got = sim._solve_fields(state)
        assert calls == [2, 1] * sim.decomp.n_proc_1
        monkeypatch.setattr(FieldSolver, "partial_moments", real)
        want = _per_chunk_fields(sim, state)
        assert np.array_equal(got.phi, want.phi) and np.array_equal(got.psi_u, want.psi_u)


class TestPreparedOnce:
    def test_each_distinct_set_is_prepared_once_over_twelve_steps(self, monkeypatch):
        built = {"streaming": [], "fields": []}
        for cls, name, tag in (
            (StreamingOperator, "_prepare", "streaming"),
            (FieldSolver, "_prepare_weights", "fields"),
        ):
            real = getattr(cls, name)

            def counting(self, iv, nt, real=real, tag=tag):
                built[tag].append((iv.tobytes(), nt.tobytes()))
                return real(self, iv, nt)

            monkeypatch.setattr(cls, name, counting)
        sim = CgyroSimulation(
            VirtualWorld(single_node(ranks=4)), range(4), small_test(nonlinear=True)
        )
        for _ in range(12):
            sim.step()
        assert sim.step_count == 12
        assert len(built["streaming"]) == 1
        # one weight set per i1 column (its chunks are one call), each
        # gathered once
        sets = built["fields"]
        assert len(sets) == len(set(sets)) == sim.decomp.n_proc_1


class TestSharedDriftTable:
    def test_members_differing_in_gradients_share_one_drift_table(self):
        base = small_test(nonlinear=True)
        inputs = [
            base.with_updates(dlntdr=(2.0, 2.0), name="a"),
            base.with_updates(dlntdr=(4.0, 4.0), name="b"),
            base.with_updates(gamma_e=0.1, name="c"),
        ]
        ens = XgyroEnsemble(VirtualWorld(single_node(ranks=12)), inputs)
        ens.step()
        a, b, c = (
            _tables(m.streaming, m._all_iv, m._all_nt) for m in ens.members
        )
        assert a[-1] is b[-1]
        assert a[5] is not b[5] and not np.array_equal(a[5], b[5])
        assert c[-1] is not a[-1] and not np.array_equal(c[-1], a[-1])
        # a standalone operator on the same inputs finds the same table
        op = StreamingOperator(
            inputs[1], ens.members[1].dims, ens.members[1].vgrid, ens.members[1].cgrid
        )
        assert _tables(op, range(op.dims.nv), range(op.dims.nt))[-1] is a[-1]


    def test_the_table_goes_with_its_last_operator(self):
        # no reference cycle holds an operator's sets: refcounting alone
        # frees the table, so a dropped baseline does not pin its copy
        op = _operator(gamma_e=0.37)
        fs = FieldSolver(op.inp, op.dims, op.vgrid)
        table = weakref.ref(_tables(op, range(op.dims.nv), range(op.dims.nt))[-1])
        weights = weakref.ref(fs._weights.get(range(4), [0], fs._prepare_weights))
        gc.disable()
        try:
            del op, fs
            assert table() is None and weights() is None
        finally:
            gc.enable()


class TestNonlinearColumns:
    def test_one_bracket_per_column_equals_one_per_rank(self):
        """The nl phase's column walk against the per-rank walk it
        replaced: each rank's NL block is a row range of its column."""
        inp = small_test(nonlinear=True, amp=0.5)
        sim = CgyroSimulation(VirtualWorld(single_node(ranks=8)), range(8), inp)
        dec = sim.decomp
        assert dec.n_proc_1 > 1 and dec.n_proc_2 > 1
        before = sim.gather_h()
        phi = sim._solve_fields(sim.h_global).phi
        k_r = sim.cgrid.flat_k_radial()
        want = before.copy()
        for i1 in range(dec.n_proc_1):
            iv = dec.nv_slice(i1)
            for i2 in range(dec.n_proc_2):
                rows = nc_nl_slice(dec, i2)
                block = np.ascontiguousarray(before[rows, iv, :])
                bracket = toroidal_bracket(
                    block,
                    np.ascontiguousarray(phi[rows]),
                    k_r[rows],
                    k_theta_rho=inp.k_theta_rho,
                    nl_coeff=inp.nl_coeff,
                )
                want[rows, iv, :] = block + inp.delta_t * bracket
        sim.nonlinear_phase()
        assert np.array_equal(sim.gather_h(), want)
        assert not np.array_equal(want, before)
