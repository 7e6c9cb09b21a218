"""One host-resident ``cmat`` per signature: distinct blocks plus an index.

:class:`~repro.collision.CmatPropagator` resolves every propagator of an
equal :class:`~repro.collision.signature.CmatSignature` to one lazily filled
store of the distinct ``(profile value, mode)`` blocks, inverts each
once and hands out read-only :class:`~repro.collision.cmat.CmatWindow`
objects onto it.  These tests hold that to ``np.array_equal``
(never ``allclose``) against the per-pair loop it replaced — kept here
as the reference — over every way of asking, pin the sharing contract
and its lifetime, count the inversions of whole runs exactly, and prove
that neither the simulated clock nor the SDC model can see any of it.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.cgyro.presets import nl03c_scaled, small_test
from repro.check.oracle import differential_oracle
from repro.collision.cmat import CmatPropagator, CmatWindow
from repro.collision.operator import CollisionOperator
from repro.collision.params import DEFAULT_SPECIES, CollisionParams
from repro.collision.signature import CmatSignature
from repro.errors import InputError
from repro.grid.config_space import ConfigGrid
from repro.grid.dims import GridDims
from repro.grid.velocity import VelocityGrid
from repro.machine.presets import frontier_like, generic_cluster
from repro.vmpi.world import VirtualWorld
from repro.xgyro.baseline import SequentialCgyroBaseline
from repro.xgyro.driver import XgyroEnsemble

_inv = np.linalg.inv


def _operator(dims: GridDims, params: CollisionParams) -> CollisionOperator:
    return CollisionOperator(
        dims, VelocityGrid.build(dims), ConfigGrid.build(dims), params
    )


def _input_propagator(inp) -> CmatPropagator:
    return CmatPropagator(
        _operator(inp.grid_dims(), inp.collision_params()), dt=inp.delta_t
    )


def reference_blocks(op: CollisionOperator, dt: float, ics, ns) -> np.ndarray:
    """The per-pair loop ``build`` used to be: one inversion per (ic, n)."""
    nv = op.dims.nv
    eye = np.eye(nv)
    profile = op.nu_profile()
    out = np.empty((len(ics), len(ns), nv, nv))
    for j, n_mode in enumerate(ns):
        c_n = op.mode_matrix(n_mode)
        for i, ic in enumerate(ics):
            out[i, j] = _inv(eye - dt * profile[ic] * c_n)
    return out


@pytest.fixture
def inversions(monkeypatch):
    """Matrices handed to ``np.linalg.inv`` per call, while the test runs."""
    calls = []

    def counting_inv(a):
        a = np.asarray(a)
        calls.append(a.size // (a.shape[-1] * a.shape[-2]))
        return _inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return calls


_unused_nu = (0.1 + 1e-6 * i for i in itertools.count(1))


def _cold(preset=small_test, **overrides):
    """An input whose signature no other test, fixture or garbage holds, so
    its tensor starts empty whatever ran before in this process."""
    return preset(nu=next(_unused_nu), **overrides)


def _views(window: CmatWindow):
    """Every array a window reads its blocks from."""
    return [view for _, _, view in window.tiles]


def _share(a: CmatWindow, b: CmatWindow) -> bool:
    """Whether any block of ``a`` is the memory of a block of ``b``."""
    return any(np.shares_memory(x, y) for x in _views(a) for y in _views(b))


def _sub_ranges(n: int):
    return [range(lo, hi) for lo in range(n) for hi in range(lo + 1, n + 1)]


# ----------------------------------------------------------------------
# (i) the same bits as the loop, however the blocks are asked for
# ----------------------------------------------------------------------
@st.composite
def _cases(draw):
    n_species = draw(st.integers(1, 2))
    dims = GridDims(
        n_radial=draw(st.integers(1, 3)),
        n_theta=draw(st.sampled_from((1, 2, 3, 4, 5))),
        n_energy=draw(st.integers(1, 2)),
        n_xi=draw(st.integers(2, 3)),
        n_species=n_species,
        n_toroidal=draw(st.integers(1, 3)),
    )
    params = CollisionParams(
        nu=draw(st.sampled_from((0.0, 0.1, 0.7))),
        nu_profile_eps=draw(st.sampled_from((0.0, 0.2, -0.35))),
        flr_coeff=draw(st.sampled_from((0.0, 0.01))),
        conserve_momentum=draw(st.booleans()),
        species=DEFAULT_SPECIES[:n_species],
    )
    dt = draw(st.sampled_from((0.01, 0.05, 0.3)))
    index_lists = st.tuples(
        st.lists(st.integers(0, dims.nc - 1), max_size=6),
        st.lists(st.integers(0, dims.nt - 1), max_size=4),
    )
    history = draw(st.lists(index_lists, max_size=4))
    return dims, params, dt, history


class TestBitEqualToThePerPairLoop:
    @settings(max_examples=40, deadline=None)
    @given(_cases())
    def test_any_request_after_any_history(self, case):
        dims, params, dt, history = case
        op = _operator(dims, params)
        full = reference_blocks(op, dt, range(dims.nc), range(dims.nt))
        prop = CmatPropagator(op, dt=dt)
        # arbitrary earlier requests: unsorted, repeated, non-contiguous, empty
        for ics, ns in history:
            got = prop.build(ics, ns)
            assert got.shape == (len(ics), len(ns), dims.nv, dims.nv)
            assert got.dtype == np.float64
            assert got.nbytes == full[np.ix_(ics, ns)].nbytes
            assert np.array_equal(got, full[np.ix_(ics, ns)])
            for i, j in itertools.product(range(len(ics)), range(len(ns))):
                assert np.array_equal(got[i, j], full[ics[i], ns[j]])
                assert not got[i, j].flags.writeable
            assert not any(view.flags.writeable for view in _views(got))
        # every contiguous sub-range of both axes, on whatever is filled by now
        for ic_run, n_run in itertools.product(
            _sub_ranges(dims.nc), _sub_ranges(dims.nt)
        ):
            got = prop.build(ic_run, n_run)
            want = full[ic_run.start : ic_run.stop, n_run.start : n_run.stop]
            assert np.array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(_cases(), st.randoms(use_true_random=False))
    def test_cold_tensor_any_first_request(self, case, rnd):
        dims, params, dt, _ = case
        op = _operator(dims, params)
        full = reference_blocks(op, dt, range(dims.nc), range(dims.nt))
        runs = list(itertools.product(_sub_ranges(dims.nc), _sub_ranges(dims.nt)))
        for ic_run, n_run in rnd.sample(runs, min(len(runs), 6)):
            # a propagator of its own per request; the previous tensor died
            # with the previous propagator, so each starts cold
            got = CmatPropagator(op, dt=dt).build(ic_run, n_run)
            want = full[ic_run.start : ic_run.stop, n_run.start : n_run.stop]
            assert np.array_equal(got, want)
            del got

    def test_every_window_reads_the_store_and_equal_values_one_block(self):
        prop = _input_propagator(small_test())
        whole = prop.build(range(16), range(4))
        blocks = prop._store.blocks
        for ics, ns in (
            (range(4, 8), range(1, 3)),
            ((5,), [2]),
            ([0, 2], [0]),
            ([3, 2, 1], [0]),
            ([1, 1], [0]),
            ([0], [3, 0]),
        ):
            got = prop.build(ics, ns)
            assert all(np.shares_memory(view, blocks) for view in _views(got))
            assert _share(got, whole)
            # a dense copy is the caller's own memory
            assert not np.shares_memory(np.asarray(got), blocks)
        # cos folds n_theta = 4 to 3 values: rows 1 and 3 read one block
        assert np.shares_memory(whole[1, 2], whole[3, 2])
        assert not np.shares_memory(whole[0, 2], whole[2, 2])
        assert blocks.shape == (3, 4, 16, 16)
        assert whole.nbytes == 16 * 4 * 16 * 16 * 8  # the modeled dense bytes

    def test_row_slices_are_sub_windows_onto_the_same_blocks(self):
        prop = _input_propagator(small_test())
        whole = prop.build(range(16), range(4))
        dense = np.asarray(whole)
        for a, b in ((0, 16), (3, 9), (5, 6), (7, 7), (12, 40)):
            sub = whole[a:b]
            assert isinstance(sub, CmatWindow) and sub.shape == dense[a:b].shape
            assert np.array_equal(sub, dense[a:b])
            if sub.shape[0]:
                assert _share(sub, whole)
        with pytest.raises(IndexError):
            whole[::2]
        with pytest.raises(IndexError):
            whole[16, 0]

    def test_nothing_build_returns_can_be_written(self):
        prop = _input_propagator(small_test())
        for ics, ns in ((range(16), range(4)), ([7], [1]), ([4, 2, 9], [0, 3])):
            out = prop.build(ics, ns)
            with pytest.raises(TypeError):
                out[0, 0, 0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                out[0, 0][0, 0] = 0.0
            # nor can any block reachable from a window be made writeable again
            for arr in [out[0, 0], out[:1][0, 0]] + _views(out) + _views(out[:1]):
                with pytest.raises(ValueError, match="cannot set WRITEABLE"):
                    arr.flags.writeable = True
            for index in (out.keys, out.modes):
                assert not index.flags.writeable


class TestValidateBeforeTouchingSharedState:
    def test_out_of_range_raises_even_when_the_other_axis_is_empty(self):
        prop = _input_propagator(small_test())
        with pytest.raises(InputError, match=r"ic 999 out of range \[0, 16\)"):
            prop.build([999], [])
        with pytest.raises(InputError, match=r"toroidal mode 4 out of range \[0, 4\)"):
            prop.build([], [4])
        with pytest.raises(InputError, match="ic -1 out of range"):
            prop.build([-1], [0])

    def test_a_failed_call_leaves_nothing_behind(self, inversions):
        prop = _input_propagator(_cold())
        prop.build([0, 1], [0])
        filled_before = prop._store.filled.copy()
        done = list(inversions)
        for ics, ns in (([2, 999], [1]), ([2], [1, 4]), ([2, 3, -1], [0, 1])):
            with pytest.raises(InputError):
                prop.build(ics, ns)
        assert np.array_equal(prop._store.filled, filled_before)
        assert inversions == done
        # and the valid part of a failed request still has to be computed
        prop.build([2], [1])
        assert sum(inversions) == sum(done) + 1


# ----------------------------------------------------------------------
# (ii) the contract the key rests on: share iff the signature is equal
# ----------------------------------------------------------------------
#: fields the cmat does not depend on (what parameter sweeps vary)
_FREE = st.fixed_dictionaries(
    {
        "dlntdr": st.tuples(st.floats(1.0, 5.0), st.floats(1.0, 5.0)),
        "gamma_e": st.floats(0.0, 0.2),
        "box_length": st.floats(0.5, 2.0),
        "nonlinear": st.booleans(),
        "seed": st.integers(0, 9),
        "name": st.sampled_from(("a", "b")),
    }
)
#: one signature field changed per entry
_SIGNATURE_CHANGES = {
    "dt": dict(delta_t=0.03),
    "nu": dict(nu=0.11),
    "nu_profile_eps": dict(nu_profile_eps=0.25),
    "species": dict(
        species=(DEFAULT_SPECIES[0], replace(DEFAULT_SPECIES[1], mass=1.0 / 50.0))
    ),
    "n_toroidal": dict(n_toroidal=3),
}


class TestShareIffSignatureEqual:
    @settings(max_examples=25, deadline=None)
    @given(_FREE, _FREE)
    def test_equal_signature_same_tensor_same_bits(self, free_a, free_b):
        a, b = small_test(**free_a), small_test(**free_b)
        assert a.cmat_signature() == b.cmat_signature()
        prop_a, prop_b = _input_propagator(a), _input_propagator(b)
        ics, ns = range(3, 9), range(1, 3)
        got_a, got_b = prop_a.build(ics, ns), prop_b.build(ics, ns)
        assert prop_a._store is prop_b._store
        assert np.shares_memory(got_a[0, 0], got_b[0, 0])
        # each side's blocks, computed from its own operator with no sharing
        for prop in (prop_a, prop_b):
            want = reference_blocks(prop.operator, prop.dt, ics, ns)
            assert np.array_equal(got_a, want)

    @pytest.mark.parametrize("field", sorted(_SIGNATURE_CHANGES))
    def test_any_differing_field_gets_its_own_tensor(self, field):
        a = small_test()
        b = small_test(**_SIGNATURE_CHANGES[field])
        assert a.cmat_signature().diff(b.cmat_signature()) == (field,)
        prop_a, prop_b = _input_propagator(a), _input_propagator(b)
        got_a, got_b = prop_a.build([0, 1], [0, 1]), prop_b.build([0, 1], [0, 1])
        assert prop_a._store is not prop_b._store
        assert not _share(got_a, got_b)
        assert np.array_equal(
            got_b, reference_blocks(prop_b.operator, prop_b.dt, [0, 1], [0, 1])
        )

    def test_the_key_is_the_repo_signature(self):
        inp = small_test()
        prop = _input_propagator(inp)
        assert (
            CmatSignature.from_parts(prop.dims, prop.operator.params, prop.dt)
            == inp.cmat_signature()
        )


# ----------------------------------------------------------------------
# (iii) exact inversion counts of whole runs
# ----------------------------------------------------------------------
def _members(base, k=2):
    return [
        base.with_updates(name=f"m{m}", dlntdr=(3.0 + 0.1 * m, 3.0 + 0.1 * m))
        for m in range(k)
    ]


class TestInversionCount:
    def test_bench_shape_oracle_inverts_each_distinct_key_once(self, inversions):
        # hostbench's oracle_nl03c_k2 at --size bench: three simulations on
        # one signature, 192 (ic, n) pairs between them
        members = _members(
            _cold(
                nl03c_scaled,
                n_radial=2,
                n_toroidal=4,
                steps_per_report=1,
                nonlinear=False,
            )
        )
        dims = members[0].grid_dims()
        profile = _input_propagator(members[0]).operator.nu_profile()
        assert (dims.nc, len(np.unique(profile)), dims.nt) == (16, 5, 4)
        machine = frontier_like(n_nodes=2)
        report = differential_oracle(members, machine, n_reports=1, baseline="member")
        assert report.ok and report.max_abs == 0.0
        assert sum(inversions) == len(np.unique(profile)) * dims.nt == 20

    def test_full_nl03c_inverts_forty_and_stores_forty_blocks(self, inversions):
        # the whole (nc, nt) window of the full-size preset: 40 inversions,
        # 20 MiB resident, 512 MiB modeled (16 radial x 8 theta, cos folds 8 to 5)
        prop = _input_propagator(_cold(nl03c_scaled))
        dims = prop.dims
        whole = prop.build(range(dims.nc), range(dims.nt))
        store = prop._store
        assert (dims.nc, len(store.values), dims.nt) == (128, 5, 8)
        assert sum(inversions) == 40 and store.filled.all()
        assert store.blocks.nbytes == 40 * dims.nv**2 * 8
        assert whole.nbytes == dims.nc * dims.nt * dims.nv**2 * 8
        assert len(whole.tiles) <= 2 * dims.n_radial

    def test_small_ensemble_and_both_baselines_invert_twelve(self, inversions):
        members = _members(_cold(steps_per_report=1))
        machine = generic_cluster(n_nodes=2)
        ensemble = XgyroEnsemble(VirtualWorld(machine), members)
        base = SequentialCgyroBaseline(
            machine, members, n_ranks=len(ensemble.members[0].ranks)
        )
        sims = base.simulations()
        assert len(sims) == 2
        assert sum(inversions) == 3 * 4  # cos folds n_theta = 4 to 3 values, nt = 4


# ----------------------------------------------------------------------
# (iv) lifetime = the users' lifetime
# ----------------------------------------------------------------------
class TestLifetime:
    def test_any_live_view_keeps_the_tensor_dropping_all_frees_it(self, inversions):
        inp = _cold()
        window = _input_propagator(inp).build(range(4), [0])
        gc.collect()
        # the propagator is gone, the window is not: nothing is inverted again
        done = sum(inversions)
        again = _input_propagator(inp).build(range(4), [0])
        assert sum(inversions) == done
        assert _share(window, again)
        # a sub-window pins the store just as well
        window, again = window[1:3], None
        gc.collect()
        _input_propagator(inp).build(range(4), [0])
        assert sum(inversions) == done
        del window
        gc.collect()
        _input_propagator(inp).build(range(4), [0])
        assert sum(inversions) == 2 * done

    def test_a_copy_does_not_pin_the_tensor(self, inversions):
        inp = _cold()
        copy = np.asarray(_input_propagator(inp).build([2, 0], [0]))
        gc.collect()
        done = sum(inversions)
        _input_propagator(inp).build([2, 0], [0])
        assert copy.shape == (2, 1, 16, 16)  # alive, and yet:
        assert sum(inversions) == 2 * done


# ----------------------------------------------------------------------
# (v) the simulated machine cannot see host reuse
# ----------------------------------------------------------------------
def _simulated_figures(members, charge):
    world = VirtualWorld(generic_cluster(n_nodes=2))
    ensemble = XgyroEnsemble(world, members, charge_cmat_build=charge)
    after_build = world.elapsed()
    report = ensemble.run_report_interval()
    rows = [
        (r.step, r.time, r.wall_s, r.categories, r.flux.tolist(), r.phi2.tolist())
        for r in report.member_rows + [report.ensemble]
    ]
    ledgers = [world.ledgers[r].size_of("cmat") for r in range(world.n_ranks)]
    return after_build, world.elapsed(), rows, ledgers


@pytest.mark.parametrize("charge", (True, False))
def test_simulated_clock_is_equal_on_cold_and_warm_tensor(charge, inversions):
    members = _members(_cold(steps_per_report=2))
    cold = _simulated_figures(members, charge)
    assert sum(inversions) == 12  # it really was cold
    held = _input_propagator(members[0]).build(range(16), range(4))
    done = sum(inversions)
    warm = _simulated_figures(members, charge)
    assert sum(inversions) == done  # it really was warm
    assert _share(held, _input_propagator(members[1]).build([0], [0]))
    assert warm == cold
    assert cold[0] > 0.0 if charge else cold[0] == 0.0
    assert all(size > 0 for size in cold[3])


# ----------------------------------------------------------------------
# copy-on-corrupt: the SDC model and the oracle's independence
# ----------------------------------------------------------------------
class TestCopyOnCorrupt:
    def _ensemble(self):
        members = _members(small_test(steps_per_report=1))
        machine = generic_cluster(n_nodes=2)
        ensemble = XgyroEnsemble(VirtualWorld(machine), members)
        base = SequentialCgyroBaseline(
            machine, members, n_ranks=len(ensemble.members[0].ranks)
        )
        return ensemble, base

    def test_corruption_is_private_to_the_shard(self):
        ensemble, base = self._ensemble()
        scheme = ensemble.scheme
        sims = base.simulations()
        private = sims[0].scheme  # a PrivateCollisionScheme on the same signature
        victim = scheme.shards[0][1].world_rank
        whole = scheme._prop.build(range(16), range(4))
        blocks = scheme._prop._store.blocks

        def reads_only_the_store(window):
            return all(np.shares_memory(view, blocks) for view in _views(window))

        # a shard is a window onto the memory the baseline reads too
        assert reads_only_the_store(scheme._cmat[victim])
        assert any(_share(arr, scheme._cmat[victim]) for arr in private._cmat.values())
        others = {r: np.array(a) for r, a in scheme._cmat.items() if r != victim}
        baseline = {r: np.array(a) for r, a in private._cmat.items()}
        pristine, stored = np.array(whole), blocks.copy()
        good = np.array(scheme._cmat[victim])

        scheme.corrupt_shard(victim, seed=3)

        # one row of the shard left the store, carrying the one flipped bit
        bad = scheme._cmat[victim]
        differs = [not np.array_equal(bad[i : i + 1], good[i : i + 1]) for i in range(len(good))]
        (struck,) = np.flatnonzero(differs)
        assert not reads_only_the_store(bad)
        assert not reads_only_the_store(bad[struck : struck + 1])
        assert not _share(bad[struck : struck + 1], whole)
        for kept in (bad[:struck], bad[struck + 1 :]):
            assert reads_only_the_store(kept)
        flipped = np.asarray(bad).view(np.uint64) ^ good.view(np.uint64)
        assert sum(bin(int(word)).count("1") for word in flipped.ravel()) == 1
        assert not bad[struck, 0].flags.writeable
        # nobody else saw it
        assert np.array_equal(blocks, stored)
        assert np.array_equal(whole, pristine)
        for r, arr in others.items():
            assert np.array_equal(scheme._cmat[r], arr)
        for r, arr in baseline.items():
            assert np.array_equal(private._cmat[r], arr)
        assert scheme.verify_shards() == (victim,)

        scheme.repair_shard(victim)

        assert scheme.verify_shards() == ()
        assert np.array_equal(scheme._cmat[victim], good)
        assert reads_only_the_store(scheme._cmat[victim])

    def test_the_oracle_still_sees_a_corrupted_shard(self):
        # negative control: both sides read one host array, and the
        # comparison can still fail
        ensemble, base = self._ensemble()
        clean, _ = self._ensemble()
        victim = ensemble.scheme.shards[0][0].world_rank
        ensemble.scheme.corrupt_shard(victim)
        for run in (ensemble, clean):
            run.step()
        base.run_interval()
        reference = [sim.gather_h() for sim in base.simulations()]

        def max_abs(states):
            return max(
                float(np.max(np.abs(got - want)))
                for got, want in zip(states, reference)
            )

        assert max_abs(clean.member_states()) == 0.0
        assert max_abs(ensemble.member_states()) > 0.0
