"""Tests for figure renderers at small scale (bench-scale versions live
in benchmarks/) and the trace summary formatting."""

from __future__ import annotations

import pytest

from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.machine.presets import generic_cluster, single_node
from repro.perf.figures import _fmt_ranks, render_figure1, render_figure3
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble


class TestFormatting:
    def test_short_rank_lists_verbatim(self):
        assert _fmt_ranks((0, 1, 2)) == "[0 1 2]"

    def test_long_rank_lists_elided(self):
        text = _fmt_ranks(tuple(range(20)))
        assert text.startswith("[0 1 ..")
        assert "(20 ranks)" in text


class TestFigure1Renderer:
    def test_counts_match_trace(self):
        world = VirtualWorld(single_node(ranks=8))
        sim = CgyroSimulation(world, range(8), small_test())
        sim.step()
        sim.step()
        text = render_figure1(sim)
        # 2 steps x 4 stages x chunks x 2 moments per group
        n_chunks = len(sim._field_chunks())
        expected = 2 * 4 * n_chunks * 2
        assert f"str AllReduce x{expected}" in text
        assert "str<->coll AllToAll x4" in text  # 2 steps x (fwd + back)

    def test_untraced_sim_renders_zero_counts(self):
        world = VirtualWorld(single_node(ranks=8), trace=False)
        sim = CgyroSimulation(world, range(8), small_test())
        sim.step()
        text = render_figure1(sim)
        assert "x0" in text


class TestFigure3Renderer:
    def test_nodes_mentioned_for_multinode_ensembles(self):
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        world = VirtualWorld(machine)
        base = small_test(steps_per_report=1)
        inputs = [base.with_updates(dlntdr=(g, g)) for g in (2.0, 3.0)]
        ens = XgyroEnsemble(world, inputs)
        ens.step()
        text = render_figure3(ens)
        assert "k=2" in text
        assert "1/2 of the private-cmat footprint" in text
        assert "SEPARATED" in text
