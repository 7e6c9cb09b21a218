"""The prepared solver kernels against plain ``np.einsum`` references.

``apply_propagator`` and ``fields.velocity_moments`` (behind
``FieldSolver.partial_moments``, ``flux_spectrum`` and
``MomentCalculator``) are batched real GEMMs on the (re, im) columns of
the state.  Three things are pinned here: they agree with the textbook
contraction to a stated tolerance, a block's result does not depend on
the batch it was computed in (what every bit-exact equivalence in the
repo rests on), and nothing on the solver's path searches an einsum
contraction path any more.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InputError
from repro.cgyro.presets import small_test
from repro.cgyro.diagnostics import flux_spectrum
from repro.cgyro.fields import FieldSolver
from repro.cgyro.moments import MomentCalculator
from repro.collision.cmat import CmatPropagator, apply_propagator
from repro.collision.operator import CollisionOperator
from repro.grid.config_space import ConfigGrid
from repro.grid.velocity import VelocityGrid
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble
from repro.xgyro.shared_cmat import SharedCmatScheme

#: float64 sums of at most 64 products of O(1) terms, against a
#: reference that adds them in another order
RTOL = 1e-13


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=RTOL * np.abs(want).max())


def _solver(**overrides):
    inp = small_test(**overrides)
    dims = inp.grid_dims()
    return FieldSolver(inp, dims, VelocityGrid.build(dims))


def _operator():
    inp = small_test()
    dims = inp.grid_dims()
    return CollisionOperator(
        dims, VelocityGrid.build(dims), ConfigGrid.build(dims), inp.collision_params()
    )


shapes = st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 9))


class TestApplyPropagator:
    @given(shape=shapes, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_matches_einsum_and_is_batch_independent(self, shape, seed):
        n_ic, n_modes, nv = shape
        rng = np.random.default_rng(seed)
        cmat = rng.normal(size=(n_ic, n_modes, nv, nv))
        h = _complex(rng, (n_ic, nv, n_modes))
        out = apply_propagator(cmat, h)
        assert out.shape == h.shape and out.dtype == np.complex128
        _close(out, np.einsum("ctvw,cwt->cvt", cmat, h))
        for a in range(n_ic):
            for b in range(a + 1, n_ic + 1):
                assert np.array_equal(out[a:b], apply_propagator(cmat[a:b], h[a:b]))
        for a in range(n_modes):
            for b in range(a + 1, n_modes + 1):
                assert np.array_equal(
                    out[:, :, a:b], apply_propagator(cmat[:, a:b], h[:, :, a:b])
                )

    @given(shape=shapes, k=st.integers(1, 8), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_a_member_axis_is_bit_equal_to_one_call_per_member(self, shape, k, seed):
        n_ic, n_modes, nv = shape
        rng = np.random.default_rng(seed)
        cmat = rng.normal(size=(n_ic, n_modes, nv, nv))
        stacked = _complex(rng, (n_ic, k, nv, n_modes))
        out = apply_propagator(cmat, stacked)
        assert out.shape == stacked.shape and out.dtype == np.complex128
        for m in range(k):
            member = np.ascontiguousarray(stacked[:, m])
            assert np.array_equal(out[:, m], apply_propagator(cmat, member))
        # a strided stack reads the same bits
        wide = np.zeros((n_ic, k, nv, 2 * n_modes), complex)
        wide[..., ::2] = stacked
        assert np.array_equal(apply_propagator(cmat, wide[..., ::2]), out)

    def test_a_member_axis_broadcasts_every_tile_of_a_window(self):
        # a window's tiles share blocks between rows (stride 0 or +-1 key)
        op = _operator()
        window = CmatPropagator(op, dt=0.05).build(range(op.dims.nc), [3, 1, 2])
        assert len(window.tiles) > 1
        rng = np.random.default_rng(5)
        stacked = _complex(rng, (op.dims.nc, 4, op.dims.nv, 3))
        out = apply_propagator(window, stacked)
        for m in range(4):
            want = apply_propagator(np.asarray(window), np.ascontiguousarray(stacked[:, m]))
            assert np.array_equal(out[:, m], want)
        with pytest.raises(InputError, match="incompatible"):
            apply_propagator(window, stacked[:, :, None])

    def test_non_contiguous_operands(self):
        # the shapes the XGYRO coll step hands over: a row range of a
        # shard against a concatenation of AllToAll receive blocks, and
        # a strided state that has no (re, im) view at all
        rng = np.random.default_rng(1)
        shard = rng.normal(size=(6, 2, 8, 8))
        recv = [_complex(rng, (3, 4, 2)) for _ in range(2)]
        h = np.concatenate(recv, axis=1)
        want = np.einsum("ctvw,cwt->cvt", shard[2:5], h)
        _close(apply_propagator(shard[2:5], h), want)
        wide = np.zeros((3, 8, 4), complex)
        wide[:, :, ::2] = h
        _close(apply_propagator(shard[2:5], wide[:, :, ::2]), want)
        assert np.array_equal(
            apply_propagator(shard[2:5], wide[:, :, ::2]), apply_propagator(shard[2:5], h)
        )
        _close(
            apply_propagator(shard.transpose(0, 1, 3, 2)[2:5], h),
            np.einsum("ctwv,cwt->cvt", shard[2:5], h),
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.complex128, np.int64])
    def test_rejects_non_float64_cmat(self, dtype):
        with pytest.raises(InputError, match="float64"):
            apply_propagator(np.zeros((1, 1, 3, 3), dtype), np.zeros((1, 3, 1), complex))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    def test_rejects_non_complex128_state(self, dtype):
        with pytest.raises(InputError, match="complex128"):
            apply_propagator(np.zeros((1, 1, 3, 3)), np.zeros((1, 3, 1), dtype))


def _moments_reference(table, h, iv, nt):
    """One plain einsum per weight row, as the solver used to do it."""
    return np.stack(
        [np.einsum("cvt,vt->ct", h, rows.T[np.ix_(iv, nt)]) for rows in table]
    )


index_sets = st.tuples(
    st.integers(1, 5),
    st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True),
    st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
)


class TestVelocityMoments:
    @given(sets=index_sets, beta_e=st.sampled_from([0.0, 0.01]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_partial_moments_match_einsum(self, sets, beta_e, seed):
        nc, iv, nt = sets
        fs = _solver(beta_e=beta_e)
        h = _complex(np.random.default_rng(seed), (nc, len(iv), len(nt)))
        out = fs.partial_moments(h, iv, nt)
        assert out.shape == (3 if beta_e else 2, nc, len(nt))
        weights = [rows.T for rows in fs.moment_weights]
        _close(out, _moments_reference([w.T for w in weights], h, iv, nt))
        # one configuration point's moments do not depend on the others
        for c in range(nc):
            assert np.array_equal(out[:, c : c + 1], fs.partial_moments(h[c : c + 1], iv, nt))

    def test_chunk_slices_of_a_rank_block(self):
        # _solve_fields hands over h[:, chunk] without copying it
        fs = _solver(beta_e=0.01)
        h = _complex(np.random.default_rng(2), (16, 8, 2))
        iv, nt = list(range(4, 12)), range(2, 4)
        whole = fs.partial_moments(h, iv, nt)
        halves = [
            fs.partial_moments(h[:, a:b, :], iv[a:b], nt) for a, b in ((0, 4), (4, 8))
        ]
        assert np.array_equal(halves[0], fs.partial_moments(h[:, :4].copy(), iv[:4], nt))
        _close(halves[0] + halves[1], whole)

    @given(
        nc=st.integers(1, 5),
        iv=st.tuples(st.integers(0, 12), st.integers(2, 4)),
        beta_e=st.sampled_from([0.0, 0.01]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_nt_of_the_simulations_array_equal_the_per_rank_blocks(
        self, nc, iv, beta_e, seed
    ):
        """_solve_fields computes an iv chunk's moments for all nt at
        once on a strided slice of the (nc, nv, nt) array: each nt
        window of the result is, bit for bit, what a rank's contiguous
        ``nt_loc`` block (and the strided window itself) gives."""
        fs = _solver(beta_e=beta_e)
        state = _complex(np.random.default_rng(seed), (nc, 16, 4))
        iv_sel = range(iv[0], iv[0] + iv[1])
        chunk = state[:, iv_sel.start : iv_sel.stop, :]
        assert not chunk.flags.c_contiguous or nc == 1
        whole = fs.partial_moments(chunk, iv_sel, range(4))
        for nt_loc in (1, 2, 4):
            for lo in range(0, 4, nt_loc):
                nt = range(lo, lo + nt_loc)
                window = chunk[:, :, lo : lo + nt_loc]
                block = np.ascontiguousarray(window)
                want = whole[:, :, lo : lo + nt_loc]
                assert np.array_equal(want, fs.partial_moments(block, iv_sel, nt))
                assert np.array_equal(want, fs.partial_moments(window, iv_sel, nt))

    def test_one_row_contraction_is_only_close_across_strides(self):
        """Why diagnostics() copies a rank's block before flux_spectrum:
        with a single weight row the product is a GEMV, whose summation
        order follows the operand's row stride.  Equal to round-off,
        and equal in bits only on like-strided operands."""
        fs = _solver()
        state = _complex(np.random.default_rng(0), (16, 16, 4))
        window = state[:, :8, 1:2]
        block = np.ascontiguousarray(window)
        kw = dict(k_theta_rho=0.3)
        phi = _complex(np.random.default_rng(1), (16, 1))
        strided = flux_spectrum(window, phi, fs, range(8), [1], **kw)
        _close(strided, flux_spectrum(block, phi, fs, range(8), [1], **kw))
        assert np.array_equal(
            flux_spectrum(block.copy(), phi, fs, range(8), [1], **kw),
            flux_spectrum(block, phi, fs, range(8), [1], **kw),
        )

    def test_shape_and_dtype_checks(self):
        fs = _solver()
        with pytest.raises(InputError, match="inconsistent"):
            fs.partial_moments(np.zeros((16, 3, 2), complex), [0, 1], [0, 1])
        with pytest.raises(InputError, match="complex128"):
            fs.partial_moments(np.zeros((16, 2, 2)), [0, 1], [0, 1])

    def test_flux_spectrum_matches_einsum(self):
        fs = _solver()
        rng = np.random.default_rng(3)
        iv, nt = [1, 2, 5, 11], [0, 2, 3]
        h, phi = _complex(rng, (16, 4, 3)), _complex(rng, (16, 3))
        w = fs.vgrid.flat_weights()[iv]
        weighted = np.einsum("cvt,v,vt->ct", h, w, fs.j_table[np.ix_(iv, nt)])
        want = 0.3 * np.array(nt) * np.einsum("ct,ct->t", np.conj(phi), weighted).imag
        _close(flux_spectrum(h, phi, fs, iv, nt, k_theta_rho=0.3), want)
        with pytest.raises(InputError, match="phi shape"):
            flux_spectrum(h, phi[:, :2], fs, iv, nt, k_theta_rho=0.3)

    def test_fluid_moments_match_einsum(self):
        fs = _solver()
        calc = MomentCalculator(fs)
        d, vg = fs.dims, fs.vgrid
        h = _complex(np.random.default_rng(4), (d.nc, d.nv, d.nt))
        got = calc.compute(h)
        w, vpar, spec = vg.flat_weights(), vg.flat_vpar(), vg.flat_species()
        for s in range(d.n_species):
            m = spec == s
            flow = w[m] * vpar[m] / (w[m] * vpar[m] ** 2).sum()
            temp = w[m] * (2.0 / 3.0) * (vg.flat_energy()[m] - 1.5)
            for field, wv in ((got.density, w[m]), (got.parallel_flow, flow), (got.temperature, temp)):
                _close(field[s], np.einsum("cvt,v,vt->ct", h[:, m], wv, fs.j_table[m]))


class TestNoPathSearch:
    """``np.einsum(optimize=True)`` re-derives its contraction path on
    every call; the solver must not go through it."""

    @pytest.fixture
    def no_einsum_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("einsum contraction-path search on the solver path")

        # the name np.einsum looks up in its own module's globals
        monkeypatch.setitem(np.einsum._implementation.__globals__, "einsum_path", refuse)
        with pytest.raises(AssertionError, match="path search"):
            np.einsum("ij,jk->ik", np.eye(2), np.eye(2), optimize=True)
        np.einsum("ij,jk->ik", np.eye(2), np.eye(2))

    def test_report_interval_and_fluid_moments(self, no_einsum_path):
        base = small_test(nonlinear=True, steps_per_report=2)
        members = [base.with_updates(dlntdr=(g, g), name=f"m{g}") for g in (2.0, 3.0)]
        ensemble = XgyroEnsemble(VirtualWorld(single_node(ranks=16)), members)
        report = ensemble.run_report_interval()
        assert all(np.isfinite(row.flux).all() for row in report.member_rows)
        sim = ensemble.members[0]
        fluid = MomentCalculator(sim.fields).compute(sim.gather_h())
        assert np.isfinite(fluid.density).all()


class TestShardChecksum:
    def test_digest_is_the_index_then_every_tile_block_in_place(self):
        prop = CmatPropagator(_operator(), dt=0.02)
        # rows 3..6 read keys 1 0 1 2 (cos folds n_theta = 4 to 3 values):
        # tiles 1 0 | 1 2, so key 1's blocks are hashed once per tile
        built = prop.build(range(3, 7), [0, 2])
        assert [view.shape[:2] for _, _, view in built.tiles] == [(2, 2), (2, 2)]
        want = hashlib.sha256(built.keys.tobytes() + built.modes.tobytes())
        for _, _, view in built.tiles:
            want.update(np.ascontiguousarray(view).tobytes())
        assert SharedCmatScheme._checksum(built) == want.hexdigest()
        # rows of one value are one stored block, hashed once
        same = prop.build([1, 1, 1], [0])
        assert SharedCmatScheme._checksum(same) == hashlib.sha256(
            same.keys.tobytes() + same.modes.tobytes() + same[0, 0].tobytes()
        ).hexdigest()
        # the index is part of the content: the same blocks on other rows differ
        assert SharedCmatScheme._checksum(prop.build([3, 4], [0])) != (
            SharedCmatScheme._checksum(prop.build([4, 3], [0]))
        )
        # and every bit of every row is: one flipped anywhere changes the digest
        for row in range(4):
            struck = np.array(built[row : row + 1])
            struck.view(np.uint64).flat[37 * row] ^= np.uint64(1)
            assert SharedCmatScheme._checksum(built.with_row(row, struck)) != want.hexdigest()


class TestBaseMatrixCache:
    def test_one_assembly_per_operator_when_alternating(self, monkeypatch):
        import repro.collision.operator as operator_module

        calls = []
        real = operator_module.apply_conservation

        def counting(c0, *args, **kwargs):
            calls.append(c0.shape)
            return real(c0, *args, **kwargs)

        monkeypatch.setattr(operator_module, "apply_conservation", counting)
        first, second = _operator(), _operator()
        for _ in range(3):
            for op in (first, second):
                op.base_matrix()
                op.mode_matrix(1)
        assert len(calls) == 2
        assert first._base_matrix_cached is not second._base_matrix_cached

    def test_cached_matrix_is_read_only_and_copies_are_not(self):
        op = _operator()
        cached = op._base_matrix_cached
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
        copy = op.base_matrix()
        copy[0, 0] += 1.0
        assert op.base_matrix()[0, 0] == cached[0, 0]
        assert not op._base_matrix_cached.flags.writeable
