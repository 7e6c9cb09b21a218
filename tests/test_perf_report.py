"""Tests for the Figure-2 harness, figure renderers, memory arithmetic
and the calibration machinery (all at test scale)."""

from __future__ import annotations

import pytest

from repro.errors import DecompositionError, InputError
from repro.cgyro import CgyroSimulation, small_test
from repro.machine import generic_cluster, single_node, frontier_like
from repro.machine.model import MiB
from repro.perf import (
    calibrate_machine,
    cmat_dominance_ratio,
    figure2_comparison,
    min_nodes_required,
    render_figure1,
    render_figure2,
    render_figure3,
)
from repro.perf.calibrate import PAPER_TARGETS, _predict
from repro.perf.memory import cmat_bytes_per_rank, member_decomp, state_bytes_per_rank
from repro.campaign import CampaignPacker
from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled
from repro.collision.cmat import CmatPropagator, cmat_block_bytes
from repro.plan import feasible_geometries
from repro.grid import Decomposition
from repro.vmpi import VirtualWorld
from repro.xgyro import XgyroEnsemble


def sweep(k):
    base = small_test(steps_per_report=10)
    return [base.with_updates(dlntdr=(2.0 + m, 2.0 + m), name=f"m{m}") for m in range(k)]


class TestFigure2Harness:
    def test_small_scale_comparison(self):
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        res = figure2_comparison(sweep(4), machine, measure_steps=2)
        assert res.n_members == 4
        assert res.steps_per_report == 10
        assert res.cgyro_sum.wall_s > 0
        assert res.xgyro.wall_s > 0
        # the paper's two headline inequalities
        assert res.speedup > 1.0
        assert res.str_comm_reduction > 1.0

    def test_extrapolation_is_consistent(self):
        """Measuring 1 step vs 5 steps gives (nearly) the same
        extrapolated interval — per-step costs are stationary."""
        machine = generic_cluster(n_nodes=2, ranks_per_node=4)
        inputs = sweep(2)
        r1 = figure2_comparison(inputs, machine, measure_steps=1)
        r5 = figure2_comparison(inputs, machine, measure_steps=5)
        assert r1.cgyro_sum.wall_s == pytest.approx(r5.cgyro_sum.wall_s, rel=1e-6)
        assert r1.xgyro.str_comm_s == pytest.approx(r5.xgyro.str_comm_s, rel=1e-6)

    def test_render_contains_key_lines(self):
        machine = generic_cluster(n_nodes=2, ranks_per_node=4)
        res = figure2_comparison(sweep(2), machine, measure_steps=1)
        text = render_figure2(res, paper=PAPER_TARGETS)
        assert "str_comm" in text
        assert "speedup" in text
        assert "paper" in text

    def test_each_block_of_the_one_signature_is_inverted_once(self, monkeypatch):
        """The baseline and the ensemble share one cmat signature: the
        ensemble finds the store the baseline filled (at the parent it
        was released with the baseline and filled again)."""
        filled = []
        fill = CmatPropagator._fill

        def counting(self, keys, ns):
            before = int(self._store.filled.sum())
            fill(self, keys, ns)
            filled.append((int(self._store.filled.sum()) - before, self._store.filled.size))

        monkeypatch.setattr(CmatPropagator, "_fill", counting)
        # a collisionality no other test runs: no store of it is alive
        inputs = [inp.with_updates(nu=0.0321) for inp in sweep(2)]
        figure2_comparison(inputs, generic_cluster(n_nodes=2, ranks_per_node=4), measure_steps=1)
        (blocks,) = {size for _, size in filled}
        assert sum(n for n, _ in filled) == blocks

    def test_input_validation(self):
        machine = generic_cluster()
        with pytest.raises(InputError):
            figure2_comparison([], machine)
        with pytest.raises(InputError):
            figure2_comparison(sweep(2), machine, measure_steps=0)


class TestFigureRenderers:
    def test_figure1_shows_shared_communicator(self):
        world = VirtualWorld(single_node(ranks=8))
        sim = CgyroSimulation(world, range(8), small_test())
        sim.step()
        text = render_figure1(sim)
        assert "SAME communicator" in text
        assert "AllReduce" in text and "AllToAll" in text

    def test_figure3_shows_separation(self):
        world = VirtualWorld(single_node(ranks=16))
        ens = XgyroEnsemble(world, sweep(2))
        ens.step()
        text = render_figure3(ens)
        assert "SEPARATED" in text
        assert "k=2" in text
        assert "member 0" in text and "member 1" in text

    def test_figure3_counts_alltoalls(self):
        world = VirtualWorld(single_node(ranks=16))
        ens = XgyroEnsemble(world, sweep(2))
        ens.step()
        ens.step()
        text = render_figure3(ens)
        # 2 steps x 2 alltoalls (forward + back) per coll group
        assert "AllToAll x4" in text


class TestMemoryArithmetic:
    def test_state_estimate_matches_ledger(self):
        """The closed-form state bytes are the enforced ledger's sum,
        exactly — both read the solver's one buffer table."""
        for overrides in ({}, {"nonlinear": True}, {"beta_e": 0.01}):
            world = VirtualWorld(single_node(ranks=8))
            inp = small_test(**overrides)
            sim = CgyroSimulation(world, range(8), inp)
            assert (
                state_bytes_per_rank(inp, sim.decomp) == sim.state_bytes_per_rank()
            ), overrides

    def test_cmat_bytes_shrink_with_ensemble(self):
        inp = small_test()
        dec = Decomposition(inp.grid_dims(), 2, 2)
        private = cmat_bytes_per_rank(inp, dec, ensemble_size=1)
        shared = cmat_bytes_per_rank(inp, dec, ensemble_size=2)
        assert private == 2 * shared

    def test_nl03c_cmat_dominance_is_about_ten(self):
        ratio = cmat_dominance_ratio(nl03c_scaled())
        assert 8.0 < ratio < 13.0

    def test_dominance_is_strong_scaling_invariant(self):
        """The paper: the relative size does not change with P1."""
        inp = nl03c_scaled()
        dims = inp.grid_dims()
        for p1 in (1, 4, 32):
            dec = Decomposition(dims, p1, 8)
            ratio = cmat_bytes_per_rank(inp, dec) / state_bytes_per_rank(inp, dec)
            base = cmat_bytes_per_rank(
                inp, Decomposition(dims, 1, 8)
            ) / state_bytes_per_rank(inp, Decomposition(dims, 1, 8))
            # invariant up to the small P1-independent field arrays
            assert ratio == pytest.approx(base, rel=0.05)

    def test_min_nodes_for_scaled_nl03c(self):
        """One simulation needs 32 nodes; 8 shared members also fit 32."""
        inp = nl03c_scaled()
        machine = frontier_like(n_nodes=64, mem_per_rank_bytes=4 * MiB)
        assert min_nodes_required(inp, machine) == 32
        assert min_nodes_required(inp, machine, ensemble_size=8) <= 32

    def test_min_nodes_raises_when_nothing_fits(self):
        inp = nl03c_scaled()
        machine = frontier_like(n_nodes=4, mem_per_rank_bytes=1 * MiB)
        with pytest.raises(DecompositionError):
            min_nodes_required(inp, machine)

    def test_uneven_shared_shard_is_sized_by_its_largest(self):
        """k * P1 need not divide nc: the first coll ranks hold one
        extra point.  Only a coll rank with *no* shard is an error."""
        inp = small_test()  # nc = 16
        dec = Decomposition(inp.grid_dims(), 1, 4)
        assert cmat_bytes_per_rank(inp, dec, ensemble_size=3) == cmat_block_bytes(
            inp.grid_dims(), 6, dec.nt_loc
        )
        with pytest.raises(DecompositionError):
            cmat_bytes_per_rank(inp, dec, ensemble_size=17)

    @pytest.mark.parametrize(
        "inp, machine, k",
        [
            (small_test(), generic_cluster(8, ranks_per_node=4), k)
            for k in range(1, 9)
        ]
        + [
            (
                nl03c_scaled(),
                frontier_like(64, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK),
                k,
            )
            for k in range(1, 17)
        ],
        ids=lambda v: v if isinstance(v, int) else getattr(v, "name", None),
    )
    def test_every_layer_gives_the_same_node_count(self, inp, machine, k):
        """`min_nodes_required`, the campaign packer and the planner
        answer "on how few nodes do k members fit" identically — a node
        count, or all three "no fit" — uneven splits included."""
        try:
            arithmetic = min_nodes_required(inp, machine, ensemble_size=k)
        except DecompositionError:
            arithmetic = None
        shape = CampaignPacker(machine).shape_for(inp, k)
        geoms = feasible_geometries(machine, inp, k)
        assert arithmetic == (shape.n_nodes if shape else None)
        assert arithmetic == (geoms[0][0] if geoms else None)

    def test_nl03c_uneven_ensembles_fit_below_the_single_run_floor(self):
        """The paper's memory claim on splits that do not divide nc:
        3 members on 24 nodes, 7 on 28 — fewer than the 32 one needs."""
        inp = nl03c_scaled()
        machine = frontier_like(64, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK)
        assert min_nodes_required(inp, machine, ensemble_size=3) == 24
        assert min_nodes_required(inp, machine, ensemble_size=7) == 28

    def test_unrunnable_geometry_is_no_fit(self):
        """A nonlinear input whose NL layout cannot divide is skipped
        by the probe, as the solver would refuse to build there."""
        inp = small_test(nonlinear=True, n_radial=3, n_theta=3)  # nc = 9
        assert member_decomp(inp, 1, 2) is None  # P2 = 2 does not divide 9
        assert member_decomp(inp, 1, 1) is not None


class TestCalibration:
    def test_preset_reproduces_paper_targets(self):
        """frontier_like's baked constants hit the published numbers."""
        machine = frontier_like(n_nodes=32, mem_per_rank_bytes=4 * MiB)
        got = _predict(machine, nl03c_scaled(), 8, 256)
        for key, target in PAPER_TARGETS.items():
            assert got[key] == pytest.approx(target, rel=0.08), key

    def test_preset_constants_are_the_fit(self):
        """frontier_like's three constants are what calibrate_machine
        fits, to the seven digits they are written with."""
        res = calibrate_machine()
        assert res.residual < 0.05
        assert "calibrated machine" in res.summary()
        fit, preset = res.machine, frontier_like(n_nodes=32, mem_per_rank_bytes=4 * MiB)
        assert fit.per_call_overhead_s == pytest.approx(preset.per_call_overhead_s, rel=1e-6)
        assert fit.inter.latency_s == pytest.approx(preset.inter.latency_s, rel=1e-6)
        assert fit.flops_per_rank == pytest.approx(preset.flops_per_rank, rel=1e-6)

    def test_calibrated_shape_claims(self):
        """Speedup ~1.5x and str-comm reduction ~4.4x from the fit."""
        machine = frontier_like(n_nodes=32, mem_per_rank_bytes=4 * MiB)
        got = _predict(machine, nl03c_scaled(), 8, 256)
        speedup = got["cgyro_sum_total"] / got["xgyro_total"]
        reduction = got["cgyro_sum_str"] / got["xgyro_str"]
        assert 1.3 < speedup < 1.9
        assert 3.5 < reduction < 5.5
