"""Cross-cutting property-based invariants.

Randomised end-to-end laws tying the subsystems together — the
hypothesis-driven counterpart of the targeted unit suites:

- layout algebra: scatter/gather/transpose identities over random
  decompositions and random fields;
- sharing contract: random sweep-parameter perturbations never change
  the cmat signature, random cmat-parameter perturbations always do;
- grouping laws: arbitrary interleaved request streams partition into
  shareable batches that never mix signatures or reporting cadences;
- conservation: random collision inputs conserve particles/momentum to
  round-off through the full implicit propagator;
- cost monotonicity: collective costs grow with participants and
  bytes;
- distributed equivalence at random rank counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cgyro.presets import small_test
from repro.cgyro.reference import SerialReference
from repro.cgyro.solver import CgyroSimulation
from repro.collision.cmat import CmatPropagator
from repro.collision.operator import CollisionOperator
from repro.grid.config_space import ConfigGrid
from repro.grid.decomp import Decomposition
from repro.grid.dims import GridDims
from repro.grid.layouts import Layout, gather_global, scatter_global
from repro.grid.velocity import VelocityGrid
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld
from repro.vmpi.algorithms import AllreduceAlgorithm, EffectiveLink, allreduce_cost, alltoall_cost


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
def decomposition_strategy():
    """Random valid (dims, decomposition) pairs, kept small."""

    @st.composite
    def build(draw):
        n_radial = draw(st.sampled_from([2, 4]))
        n_theta = draw(st.sampled_from([2, 4]))
        n_energy = draw(st.sampled_from([2, 3]))
        n_xi = draw(st.sampled_from([2, 4]))
        n_species = draw(st.sampled_from([1, 2]))
        n_toroidal = draw(st.sampled_from([2, 4]))
        dims = GridDims(n_radial, n_theta, n_energy, n_xi, n_species, n_toroidal)
        p1_choices = [
            p for p in (1, 2, 4) if dims.nv % p == 0 and dims.nc % p == 0
        ]
        p2_choices = [p for p in (1, 2) if dims.nt % p == 0]
        p1 = draw(st.sampled_from(p1_choices))
        p2 = draw(st.sampled_from(p2_choices))
        return dims, Decomposition(dims, p1, p2)

    return build()


SWEEP_PERTURBATIONS = [
    lambda inp, v: inp.with_updates(dlntdr=tuple(v + g for g in inp.dlntdr)),
    lambda inp, v: inp.with_updates(dlnndr=tuple(v + g for g in inp.dlnndr)),
    lambda inp, v: inp.with_updates(gamma_e=v),
    lambda inp, v: inp.with_updates(nonadiabatic_delta=min(v, 0.9)),
    lambda inp, v: inp.with_updates(box_length=1.0 + abs(v)),
    lambda inp, v: inp.with_updates(amp=1e-3 * (1 + abs(v))),
    lambda inp, v: inp.with_updates(seed=int(abs(v) * 100) + 1),
    lambda inp, v: inp.with_updates(drift_coeff=abs(v)),
    lambda inp, v: inp.with_updates(drift_r_coeff=abs(v)),
    lambda inp, v: inp.with_updates(nl_coeff=abs(v)),
]

CMAT_PERTURBATIONS = [
    lambda inp, v: inp.with_updates(nu=inp.nu + abs(v) + 0.01),
    lambda inp, v: inp.with_updates(delta_t=inp.delta_t * (1.5 + abs(v))),
    lambda inp, v: inp.with_updates(energy_diff_coeff=inp.energy_diff_coeff + abs(v) + 0.01),
    lambda inp, v: inp.with_updates(flr_coeff=inp.flr_coeff + abs(v) + 0.01),
    lambda inp, v: inp.with_updates(nu_profile_eps=min(inp.nu_profile_eps + abs(v) * 0.1 + 0.01, 0.9)),
    lambda inp, v: inp.with_updates(conserve_momentum=not inp.conserve_momentum),
    lambda inp, v: inp.with_updates(conserve_energy=not inp.conserve_energy),
]


class TestLayoutAlgebra:
    @given(pair=decomposition_strategy(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scatter_gather_identity_all_layouts(self, pair, seed):
        dims, dec = pair
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(dims.nc, dims.nv, dims.nt)) * (1 + 1j)
        for layout in (Layout.STR, Layout.COLL):
            back = gather_global(scatter_global(f, layout, dec), layout, dec)
            np.testing.assert_array_equal(back, f)
        if dims.nc % dec.n_proc_2 == 0:
            back = gather_global(scatter_global(f, Layout.NL, dec), Layout.NL, dec)
            np.testing.assert_array_equal(back, f)

    @given(pair=decomposition_strategy())
    @settings(max_examples=25, deadline=None)
    def test_blocks_partition_every_element_once(self, pair):
        """Summing element counts over blocks == global size, and
        gathering a constant field stays constant (no element written
        twice or missed)."""
        dims, dec = pair
        ones = np.ones((dims.nc, dims.nv, dims.nt), dtype=complex)
        for layout in (Layout.STR, Layout.COLL):
            blocks = scatter_global(ones, layout, dec)
            assert sum(b.size for b in blocks) == ones.size
            np.testing.assert_array_equal(
                gather_global(blocks, layout, dec), ones
            )


class TestSharingContract:
    @given(
        idx=st.integers(0, len(SWEEP_PERTURBATIONS) - 1),
        v=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_parameters_never_change_signature(self, idx, v):
        base = small_test()
        perturbed = SWEEP_PERTURBATIONS[idx](base, v)
        assert base.cmat_signature() == perturbed.cmat_signature()

    @given(
        idx=st.integers(0, len(CMAT_PERTURBATIONS) - 1),
        v=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_cmat_parameters_always_change_signature(self, idx, v):
        base = small_test()
        perturbed = CMAT_PERTURBATIONS[idx](base, v)
        assert base.cmat_signature() != perturbed.cmat_signature()
        assert len(base.cmat_signature().diff(perturbed.cmat_signature())) >= 1


class TestSignatureGroupingAndBatching:
    """Grouping laws the campaign batcher is built on: arbitrary
    interleaved streams partition cleanly into shareable groups."""

    @staticmethod
    def _stream(fams, cadences):
        """Inputs with signature family ``fams[i]`` (nu variant) and
        reporting cadence ``cadences[i]``, in stream order."""
        base = small_test()
        return [
            base.with_updates(
                nu=base.nu * (1 + fam),
                steps_per_report=cad,
                name=f"s{i}.f{fam}",
            )
            for i, (fam, cad) in enumerate(zip(fams, cadences))
        ]

    @given(fams=st.lists(st.integers(0, 3), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_group_by_signature_partitions_preserving_order(self, fams):
        from repro.xgyro.validate import group_by_signature

        inputs = self._stream(fams, [5] * len(fams))
        groups = group_by_signature(inputs)
        seen = [i for _, idx in groups for i in idx]
        # a partition: every index exactly once
        assert sorted(seen) == list(range(len(inputs)))
        for sig, idx in groups:
            # arrival order within a group, one signature per group
            assert list(idx) == sorted(idx)
            assert all(inputs[i].cmat_signature() == sig for i in idx)
        # interleaved duplicates merge: one group per distinct family
        assert len(groups) == len(set(fams))

    @given(
        fams=st.lists(st.integers(0, 2), min_size=1, max_size=10),
        cad_choices=st.lists(st.sampled_from([2, 5]), min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_batcher_never_mixes_signatures_or_cadences(
        self, fams, cad_choices
    ):
        from repro.campaign.batcher import SignatureBatcher
        from repro.campaign.request import SimRequest

        n = min(len(fams), len(cad_choices))
        inputs = self._stream(fams[:n], cad_choices[:n])
        requests = [
            SimRequest(request_id=f"r{i}", input=inp)
            for i, inp in enumerate(inputs)
        ]
        batches = SignatureBatcher().batch(requests)
        served = [r.request_id for b in batches for r in b.requests]
        assert sorted(served) == sorted(r.request_id for r in requests)
        for b in batches:
            sigs = {r.input.cmat_signature() for r in b.requests}
            cads = {r.input.steps_per_report for r in b.requests}
            assert sigs == {b.signature}
            assert len(cads) == 1
        # one batch per distinct (family, cadence) pair — interleaved
        # arrivals of the same pair always merge
        pairs = {(f, c) for f, c in zip(fams[:n], cad_choices[:n])}
        assert len(batches) == len(pairs)

    @given(
        fams=st.lists(st.integers(0, 2), min_size=1, max_size=12),
        cap=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_batcher_cap_bounds_batches_without_losing_requests(
        self, fams, cap
    ):
        from repro.campaign.batcher import SignatureBatcher
        from repro.campaign.request import SimRequest

        inputs = self._stream(fams, [5] * len(fams))
        requests = [
            SimRequest(request_id=f"r{i}", input=inp)
            for i, inp in enumerate(inputs)
        ]
        batches = SignatureBatcher(max_batch=cap).batch(requests)
        assert all(1 <= b.size <= cap for b in batches)
        served = sorted(r.request_id for b in batches for r in b.requests)
        assert served == sorted(r.request_id for r in requests)

    def test_lone_unshareable_request_forms_k1_batch(self):
        from repro.campaign.batcher import SignatureBatcher
        from repro.campaign.request import SimRequest

        inputs = self._stream([0, 0, 1], [5, 5, 5])
        requests = [
            SimRequest(request_id=f"r{i}", input=inp)
            for i, inp in enumerate(inputs)
        ]
        batches = SignatureBatcher().batch(requests)
        assert [b.size for b in batches] == [2, 1]
        assert batches[1].requests[0].request_id == "r2"


class TestConservationThroughPropagator:
    @given(
        nu=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        eps=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_particles_and_momentum_survive_implicit_step(self, nu, eps, seed):
        inp = small_test(nu=nu, nu_profile_eps=eps)
        dims = inp.grid_dims()
        vgrid = VelocityGrid.build(dims)
        op = CollisionOperator(
            dims, vgrid, ConfigGrid.build(dims), inp.collision_params()
        )
        prop = CmatPropagator(op, dt=inp.delta_t)
        blk = prop.build([0], [0])[0, 0]
        rng = np.random.default_rng(seed)
        f = rng.normal(size=dims.nv)
        w = vgrid.flat_weights()
        masses = np.array([inp.species[s].mass for s in vgrid.flat_species()])
        mom = w * masses * vgrid.flat_vpar()
        out = blk @ f
        assert w @ out == pytest.approx(w @ f, rel=1e-9, abs=1e-12)
        assert mom @ out == pytest.approx(mom @ f, rel=1e-9, abs=1e-12)
        # dissipation: the step never amplifies in the u-norm
        u = w * masses
        assert out @ (u * out) <= f @ (u * f) * (1 + 1e-9)


class TestCostLaws:
    LINK = EffectiveLink(latency_s=1e-6, bandwidth_Bps=1e9, overhead_s=1e-5)

    @given(
        p=st.integers(2, 128),
        nbytes=st.floats(min_value=8, max_value=1e8),
        algo=st.sampled_from(list(AllreduceAlgorithm)),
    )
    @settings(max_examples=50, deadline=None)
    def test_allreduce_monotone_in_p_and_bytes(self, p, nbytes, algo):
        c = allreduce_cost(p, nbytes, self.LINK, algo)
        assert c >= self.LINK.overhead_s
        assert allreduce_cost(p + 1, nbytes, self.LINK, algo) >= c - 1e-15
        assert allreduce_cost(p, nbytes * 2, self.LINK, algo) >= c - 1e-15

    @given(p=st.integers(2, 64), nbytes=st.floats(min_value=8, max_value=1e7))
    @settings(max_examples=30, deadline=None)
    def test_alltoall_monotone_in_bytes(self, p, nbytes):
        c1 = alltoall_cost(p, nbytes, self.LINK)
        c2 = alltoall_cost(p, 2 * nbytes, self.LINK)
        assert c2 >= c1


class TestRandomisedEquivalence:
    @given(
        n_ranks=st.sampled_from([1, 2, 4, 8]),
        seed=st.integers(1, 100),
        nu=st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_distributed_matches_reference_for_random_inputs(self, n_ranks, seed, nu):
        inp = small_test(seed=seed, nu=nu)
        ref = SerialReference(inp)
        world = VirtualWorld(single_node(ranks=max(n_ranks, 1)))
        sim = CgyroSimulation(world, range(n_ranks), inp)
        ref.step()
        sim.step()
        np.testing.assert_allclose(sim.gather_h(), ref.h, rtol=1e-9, atol=1e-18)
