"""Tests for the analytic cost model: agreement with the executed
simulator and the qualitative laws the paper relies on."""

from __future__ import annotations

import pytest

from repro.cgyro import CgyroSimulation, small_test
from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled
from repro.machine import frontier_like, generic_cluster, single_node
from repro.perf import predict_cgyro_interval, predict_xgyro_interval
from repro.perf.analytic import AnalyticBreakdown
from repro.vmpi import VirtualWorld
from repro.xgyro import XgyroEnsemble


class TestAgainstExecutedSimulator:
    """The analytic model must track what the simulator actually charges."""

    @pytest.mark.parametrize("nonlinear", [False, True])
    def test_cgyro_prediction_matches_run(self, nonlinear):
        inp = small_test(nonlinear=nonlinear, steps_per_report=3)
        machine = generic_cluster(n_nodes=2, ranks_per_node=4)
        world = VirtualWorld(machine)
        sim = CgyroSimulation(world, range(8), inp)
        row = sim.run_report_interval()
        pred = predict_cgyro_interval(inp, machine, 8)
        for cat, want in pred.categories.items():
            got = row.categories.get(cat, 0.0)
            assert got == pytest.approx(want, rel=0.02), cat
        assert row.wall_s == pytest.approx(pred.total, rel=0.02)

    def test_xgyro_prediction_matches_run(self):
        inp = small_test(steps_per_report=3)
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        world = VirtualWorld(machine)
        inputs = [inp.with_updates(dlntdr=(2.0 + m, 2.0 + m)) for m in range(2)]
        ens = XgyroEnsemble(world, inputs)
        report = ens.run_report_interval()
        pred = predict_xgyro_interval(2, inp, machine, 16)
        for cat, want in pred.categories.items():
            got = report.ensemble.categories.get(cat, 0.0)
            assert got == pytest.approx(want, rel=0.02), cat

    def test_uneven_ensemble_prediction_matches_run(self):
        """k = 3 does not divide nc = 16 over the coll group: the worst
        (largest) shard gates coll_compute in the run and the model."""
        inp = small_test(steps_per_report=3)
        machine = generic_cluster(n_nodes=3, ranks_per_node=4)
        world = VirtualWorld(machine)
        inputs = [inp.with_updates(dlntdr=(2.0 + m, 2.0 + m)) for m in range(3)]
        report = XgyroEnsemble(world, inputs).run_report_interval()
        pred = predict_xgyro_interval(3, inp, machine, 12)
        for cat, want in pred.categories.items():
            got = report.ensemble.categories.get(cat, 0.0)
            assert got == pytest.approx(want, rel=0.02), cat


class TestQualitativeLaws:
    """The scalings the paper's argument rests on."""

    def test_str_comm_dominated_by_group_size(self):
        """Larger P1 groups -> more expensive str AllReduces per call."""
        inp = small_test()
        machine = single_node(ranks=16)
        # same physics, different decompositions via rank count
        p4 = predict_cgyro_interval(inp, machine, 4)   # P1=1, P2=4
        p16 = predict_cgyro_interval(inp, machine, 16)  # P1=4, P2=4
        per_rank_4 = p4.str_comm
        per_rank_16 = p16.str_comm
        # fewer calls at bigger P1 (fewer chunks) but bigger groups;
        # at fixed total calls the group-size term must show up
        assert p16.categories["str_comm"] > 0
        assert per_rank_4 != per_rank_16

    def test_compute_scales_inversely_with_ranks(self):
        inp = small_test()
        machine = single_node(ranks=16)
        c4 = predict_cgyro_interval(inp, machine, 4).categories["str_compute"]
        c16 = predict_cgyro_interval(inp, machine, 16).categories["str_compute"]
        # near-linear: only the small field-assembly term is P1-invariant
        assert c4 == pytest.approx(4 * c16, rel=0.05)

    def test_xgyro_wall_beats_sequential_sum(self):
        """The headline inequality at test scale."""
        inp = small_test()
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        k = 4
        cgyro = predict_cgyro_interval(inp, machine, 16)
        xgyro = predict_xgyro_interval(k, inp, machine, 16)
        assert xgyro.total < k * cgyro.total

    def test_xgyro_str_comm_beats_sum(self):
        inp = small_test()
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        k = 4
        cgyro = predict_cgyro_interval(inp, machine, 16)
        xgyro = predict_xgyro_interval(k, inp, machine, 16)
        assert xgyro.str_comm < k * cgyro.str_comm

    def test_ensemble_speedup_grows_with_k(self):
        """The paper's throughput claim on the headline machine: k
        sharing members on fixed nodes beat k sequential CGYRO runs by
        more the larger k is."""
        inp = nl03c_scaled()
        machine = frontier_like(n_nodes=32, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK)
        sequential = predict_cgyro_interval(inp, machine, machine.n_ranks).total
        speedups = [
            k * sequential / predict_xgyro_interval(k, inp, machine, machine.n_ranks).total
            for k in (1, 2, 4, 8)
        ]
        assert speedups[0] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(speedups, speedups[1:]))

    def test_strong_scaling_efficiency_degrades(self):
        """One nl03c run across more nodes: each doubling buys less,
        because the communication share keeps growing."""
        inp = nl03c_scaled()
        walls, ranks, comm_fractions = [], [], []
        for n_nodes in (8, 16, 32):
            machine = frontier_like(n_nodes=n_nodes)
            pred = predict_cgyro_interval(inp, machine, machine.n_ranks)
            comm = sum(pred.categories[c] for c in ("str_comm", "coll_comm", "nl_comm"))
            walls.append(pred.total)
            ranks.append(machine.n_ranks)
            comm_fractions.append(comm / pred.total)
        efficiency = [(walls[0] / w) / (n / ranks[0]) for w, n in zip(walls, ranks)]
        assert efficiency[0] == pytest.approx(1.0)
        assert all(b < a for a, b in zip(efficiency, efficiency[1:]))
        assert all(b > a for a, b in zip(comm_fractions, comm_fractions[1:]))

    def test_scaled_breakdown(self):
        b = AnalyticBreakdown({"a": 1.0, "b": 2.0})
        s = b.scaled(3.0)
        assert s.categories == {"a": 3.0, "b": 6.0}
        assert s.total == 9.0
        assert b.total == 3.0
