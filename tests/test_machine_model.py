"""Tests for repro.machine.model and presets."""

from __future__ import annotations

import pytest

from repro.errors import MachineError
from repro.machine.model import GiB, LinkParams, MachineModel
from repro.machine.presets import frontier_like, generic_cluster, single_node


def make_machine(**overrides):
    kwargs = dict(
        name="m",
        n_nodes=2,
        ranks_per_node=4,
        mem_per_rank_bytes=1024.0,
        flops_per_rank=1e9,
        intra=LinkParams(1e-6, 1e10),
        inter=LinkParams(1e-5, 1e9),
    )
    kwargs.update(overrides)
    return MachineModel(**kwargs)


class TestLinkParams:
    def test_valid(self):
        lp = LinkParams(latency_s=1e-6, bandwidth_Bps=1e9)
        assert lp.latency_s == 1e-6

    def test_negative_latency_rejected(self):
        with pytest.raises(MachineError):
            LinkParams(latency_s=-1e-6, bandwidth_Bps=1e9)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(MachineError):
            LinkParams(latency_s=1e-6, bandwidth_Bps=0.0)


class TestMachineModel:
    def test_derived_quantities(self):
        m = make_machine()
        assert m.n_ranks == 8

    def test_compute_seconds(self):
        m = make_machine(flops_per_rank=2e9)
        assert m.compute_seconds(4e9) == pytest.approx(2.0)

    def test_compute_seconds_rejects_negative(self):
        with pytest.raises(MachineError):
            make_machine().compute_seconds(-1.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_nodes", 0),
            ("ranks_per_node", 0),
            ("mem_per_rank_bytes", 0.0),
            ("flops_per_rank", 0.0),
            ("per_call_overhead_s", -1.0),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(MachineError):
            make_machine(**{field: value})

    def test_describe_mentions_name_and_counts(self):
        text = make_machine(name="testbox").describe()
        assert "testbox" in text
        assert "2 nodes" in text


class TestPresets:
    def test_frontier_like_shape(self):
        m = frontier_like(n_nodes=32)
        assert m.n_nodes == 32
        assert m.ranks_per_node == 8
        assert m.n_ranks == 256
        assert m.mem_per_rank_bytes == 64 * GiB

    def test_frontier_like_memory_override(self):
        m = frontier_like(n_nodes=4, mem_per_rank_bytes=1e6)
        assert m.mem_per_rank_bytes == 1e6

    def test_generic_cluster(self):
        m = generic_cluster(n_nodes=3, ranks_per_node=2)
        assert m.n_ranks == 6

    def test_single_node_is_one_node(self):
        m = single_node(ranks=5)
        assert m.n_nodes == 1
        assert m.n_ranks == 5
        # intra and inter links are identical on a single node
        assert m.intra == m.inter
