"""The host ``cmat`` as distinct blocks plus an index: the window's contract.

A :class:`~repro.collision.cmat.CmatWindow` must be indistinguishable,
bit for bit, from the dense array it stands for — under
``apply_propagator``, under every row split, after a corruption, a
repair and a shrink — while the store behind it holds each distinct
``(profile value, mode)`` block once and never more than the dense
tensor would.  The store is keyed by a signature that does not see the
operator's grids, so it also checks the profile it was keyed from.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.cgyro.presets import small_test
from repro.collision.cmat import (
    CmatPropagator,
    CmatWindow,
    apply_propagator,
    cmat_total_bytes,
)
from repro.collision.operator import CollisionOperator
from repro.collision.params import DEFAULT_SPECIES, CollisionParams
from repro.errors import InputError
from repro.grid.config_space import ConfigGrid
from repro.grid.dims import GridDims
from repro.grid.velocity import VelocityGrid
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble

_unused_nu = (0.3 + 1e-6 * i for i in itertools.count(1))


def _propagator(dims: GridDims, eps: float, *, theta_shift: float = 0.0, nu=None):
    """A propagator on ``dims``; a non-zero ``theta_shift`` hand-makes its grid."""
    cgrid = ConfigGrid.build(dims)
    if theta_shift:
        cgrid = replace(cgrid, theta=cgrid.theta + theta_shift)
    params = CollisionParams(
        nu=next(_unused_nu) if nu is None else nu,
        nu_profile_eps=eps,
        species=DEFAULT_SPECIES[: dims.n_species],
    )
    operator = CollisionOperator(dims, VelocityGrid.build(dims), cgrid, params)
    return CmatPropagator(operator, dt=0.05)


def _covered_once(window: CmatWindow) -> bool:
    """Whether the tiles cover ``0..n_ic`` x ``0..n_modes`` exactly once."""
    seen = np.zeros(window.shape[:2], dtype=int)
    for rows, cols, view in window.tiles:
        seen[rows, cols] += 1
        if view.shape[0] not in (1, rows.stop - rows.start):
            return False
    return bool((seen == 1).all())


@st.composite
def _index_list(draw, n: int, max_size: int):
    """Ascending, descending, repeated, shuffled (a survivor's adopted rows) or empty."""
    kind = draw(st.sampled_from(("run", "reversed", "repeated", "shuffled", "any", "empty")))
    if kind == "empty":
        return []
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo + 1, n))
    run = list(range(lo, hi))
    if kind == "reversed":
        run.reverse()
    elif kind == "repeated":
        run = [lo] * draw(st.integers(1, 3)) + run
    elif kind == "shuffled":
        run = draw(st.permutations(range(n)))[: hi - lo]
    elif kind == "any":
        run = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max_size))
    return run[:max_size]


@st.composite
def _windows(draw):
    dims = GridDims(
        n_radial=draw(st.integers(1, 3)),
        n_theta=draw(st.integers(1, 6)),
        n_energy=1,
        n_xi=draw(st.integers(2, 3)),
        n_species=1,
        n_toroidal=draw(st.integers(1, 3)),
    )
    eps = draw(st.sampled_from((0.0, 0.2, -0.35, 0.61)))
    ics = draw(_index_list(dims.nc, 12))
    ns = draw(_index_list(dims.nt, 4))
    return dims, eps, ics, ns, draw(st.integers(0, 2**16))


class TestWindowEqualsItsDenseArray:
    @settings(max_examples=60, deadline=None)
    @given(_windows())
    def test_apply_tiles_and_store_size(self, case):
        dims, eps, ics, ns, seed = case
        prop = _propagator(dims, eps)
        window = prop.build(ics, ns)
        store = prop._store
        assert store.blocks.nbytes == len(store.values) * dims.nt * dims.nv**2 * 8
        assert len(store.values) <= dims.nc and store.blocks.nbytes <= cmat_total_bytes(dims)
        assert np.array_equal(store.values[store.row_key], prop.operator.nu_profile())
        assert _covered_once(window)

        dense = np.asarray(window)
        assert dense.shape == window.shape and dense.nbytes == window.nbytes
        rng = np.random.default_rng(seed)
        shape = (len(ics), dims.nv, len(ns))
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = apply_propagator(window, h)
        assert np.array_equal(out, apply_propagator(dense, h))
        for a in range(len(ics) + 1):
            for b in range(a, len(ics) + 1):
                part = window[a:b]
                assert _covered_once(part)
                assert np.array_equal(part, dense[a:b])
                assert np.array_equal(apply_propagator(part, h[a:b]), out[a:b])
        # a row that left the store (a struck shard's) is one more tile
        for i in range(len(ics)):
            struck = window.with_row(i, -np.array(window[i : i + 1]))
            want = dense.copy()
            want[i] = -dense[i]
            assert _covered_once(struck)
            assert np.array_equal(struck, want)
            assert np.array_equal(apply_propagator(struck, h), apply_propagator(want, h))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 3), st.sampled_from((0.2, -0.35)))
    def test_an_all_distinct_profile_stores_exactly_the_dense_tensor(self, n_theta, nt, eps):
        dims = GridDims(
            n_radial=1, n_theta=n_theta, n_energy=1, n_xi=2, n_species=1, n_toroidal=nt
        )
        prop = _propagator(dims, eps, theta_shift=0.1)  # no two cos(theta) equal
        whole = prop.build(range(dims.nc), range(dims.nt))
        store = prop._store
        assert len(store.values) == dims.nc
        assert store.blocks.nbytes == cmat_total_bytes(dims) == whole.nbytes
        assert np.array_equal(
            np.asarray(whole), store.blocks[store.row_key]
        )


class TestProfileIsChecked:
    DIMS = GridDims(n_radial=2, n_theta=4, n_energy=1, n_xi=2, n_species=1, n_toroidal=2)

    def test_a_second_operator_on_other_grids_is_refused(self):
        nu = next(_unused_nu)
        first = _propagator(self.DIMS, 0.2, nu=nu)
        held = first.build(range(8), range(2))
        same = _propagator(self.DIMS, 0.2, nu=nu)
        assert same.build([1], [0])[0, 0].tobytes() == held[1, 0].tobytes()
        with pytest.raises(InputError, match=r"collisionality profile.*CmatSignature\("):
            _propagator(self.DIMS, 0.2, nu=nu, theta_shift=0.3)
        # nothing was written on the way to the refusal
        assert np.array_equal(held, first.build(range(8), range(2)))
        # once nobody holds the first store, the hand-made grid keys its own
        del first, same, held
        gc.collect()
        shifted = _propagator(self.DIMS, 0.2, nu=nu, theta_shift=0.3)
        block = shifted.build([1], [0])[0, 0]
        op = shifted.operator
        want = np.linalg.inv(np.eye(2) - 0.05 * op.nu_profile()[1] * op.mode_matrix(0))
        assert np.array_equal(block, want)


def _ensemble(k: int, ranks: int, **overrides):
    members = [
        small_test(steps_per_report=1, name=f"m{m}", dlntdr=(3.0 + 0.1 * m,) * 2, **overrides)
        for m in range(k)
    ]
    return XgyroEnsemble(VirtualWorld(single_node(ranks=ranks)), members)


class TestCorruptRepairRecover:
    def test_round_trip_at_every_row_and_mode_of_a_shard(self):
        # 8 rows x 2 modes per shard; cos folds the rows' keys to 0 1 2 1 0 1 2 1,
        # so a struck row is the head, the middle, the tail or the whole of a tile
        scheme = _ensemble(2, 4).scheme
        victim = scheme.shards[0][1].world_rank
        good = np.array(scheme._cmat[victim])
        assert good.shape[:2] == (8, 2) and len(scheme._cmat[victim].tiles) == 4
        rng = np.random.default_rng(0)
        h = rng.normal(size=(8, 16, 2)) + 1j * rng.normal(size=(8, 16, 2))
        clean = apply_propagator(good, h)
        struck_at = set()
        for seed in range(120):
            scheme.corrupt_shard(victim, seed=seed)
            bad = scheme._cmat[victim]
            ((row, mode, _, _),) = np.argwhere(np.asarray(bad) != good)
            struck_at.add((int(row), int(mode)))
            assert _covered_once(bad)
            assert scheme.verify_shards() == (victim,)
            out = apply_propagator(bad, h)
            assert np.array_equal(out, apply_propagator(np.asarray(bad), h))
            # the oracle's view: the struck row, and only it, is advanced wrongly
            assert np.flatnonzero((out != clean).any(axis=(1, 2))).tolist() in ([row], [])
            assert scheme.repair_shard(victim) == 16
            assert scheme.verify_shards() == ()
            assert np.array_equal(scheme._cmat[victim], good)
        assert struck_at == set(itertools.product(range(8), range(2)))

    def test_two_upsets_on_one_shard_both_stay(self):
        scheme = _ensemble(2, 4).scheme
        victim = scheme.shards[1][0].world_rank
        good = np.array(scheme._cmat[victim])
        scheme.corrupt_shard(victim, seed=1)
        once = np.array(scheme._cmat[victim])
        scheme.corrupt_shard(victim, seed=2)
        twice = np.asarray(scheme._cmat[victim])
        assert (once != good).sum() == 1 and (twice != good).sum() == 2
        assert (twice != once).sum() == 1

    def test_shrink_onto_a_previously_corrupted_survivor(self):
        runs = {}
        for corrupted in (False, True):
            ensemble = _ensemble(3, 6)
            scheme = ensemble.scheme
            survivor = scheme.shards[0][0].world_rank
            if corrupted:
                scheme.corrupt_shard(survivor, seed=5)
                assert scheme.verify_shards() == (survivor,)
            rebuilt = ensemble.drop_members([2])
            assert scheme.verify_shards() == ()
            blocks = scheme._prop._store.blocks
            for i2, shards in scheme.shards.items():
                assert sorted(ic for s in shards for ic in s.ic_indices) == list(range(16))
                n_idx = range(*ensemble.members[0].decomp.nt_slice(i2).indices(4))
                for shard in shards:
                    window = scheme._cmat[shard.world_rank]
                    assert shard.ic_indices == tuple(sorted(shard.ic_indices))
                    assert np.array_equal(window, scheme._prop.build(shard.ic_indices, n_idx))
                    assert all(np.shares_memory(v, blocks) for _, _, v in window.tiles)
                    assert scheme.shard_nbytes(shard.world_rank) == window.nbytes
            ensemble.step()
            runs[corrupted] = (rebuilt, [s.tobytes() for s in ensemble.member_states()])
        # the healed survivor cost its own rebuild on top of the adopted rows,
        # and the physics cannot tell
        assert runs[True][0] > runs[False][0]
        assert runs[True][1] == runs[False][1]
