"""Tests for timing helpers, report rendering, and the public API surface."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cgyro.timing import (
    CATEGORY_ORDER,
    ReportRow,
    delta,
    render_report,
    snapshot,
    sum_rows,
)
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld


def row(step, wall=2.0, **cats):
    categories = {"str_comm": 0.5, "coll_comm": 0.3}
    categories.update(cats)
    return ReportRow(
        step=step,
        time=step * 0.01,
        wall_s=wall,
        categories=categories,
        flux=np.array([1.0, 2.0]),
        phi2=np.array([0.5, 0.5]),
    )


class TestReportRow:
    def test_comm_totals(self):
        r = row(10, nl_comm=0.2, str_compute=1.0)
        assert r.comm_s == pytest.approx(1.0)
        assert r.str_comm_s == 0.5

    def test_missing_categories_are_zero(self):
        r = ReportRow(step=1, time=0.1, wall_s=1.0, categories={})
        assert r.comm_s == 0.0
        assert r.str_comm_s == 0.0


class TestSumRows:
    def test_sequential_sum(self):
        total = sum_rows([row(10), row(10, wall=3.0, str_comm=1.5)])
        assert total.wall_s == 5.0
        assert total.categories["str_comm"] == pytest.approx(2.0)

    def test_empty_returns_none(self):
        assert sum_rows([]) is None


class TestRenderReport:
    def test_table_contains_active_categories_only(self):
        text = render_report([row(10), row(20)], label="demo")
        assert "demo" in text
        assert "str_comm" in text
        assert "nl_comm" not in text  # zero everywhere -> omitted
        assert "TOTAL" in text

    def test_rows_in_order(self):
        text = render_report([row(10), row(20)])
        assert text.index("    10") < text.index("    20")


class TestSnapshotDelta:
    def test_snapshot_covers_all_categories_plus_elapsed(self):
        world = VirtualWorld(single_node(ranks=2))
        world.charge_compute(0, seconds=1.0, category="str_compute")
        snap = snapshot(world, [0, 1])
        assert set(snap) == set(CATEGORY_ORDER) | {"elapsed"}
        assert snap["str_compute"] == 1.0
        assert snap["elapsed"] == 1.0

    def test_delta(self):
        world = VirtualWorld(single_node(ranks=2))
        before = snapshot(world, [0])
        world.charge_compute(0, seconds=2.0, category="coll_compute")
        after = snapshot(world, [0])
        d = delta(after, before)
        assert d["coll_compute"] == 2.0
        assert d["str_comm"] == 0.0


class TestPublicApi:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_surface(self):
        """Every name README's python blocks import resolves, through the
        package path README spells (the re-exports a package keeps)."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        imports = [
            node
            for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
            for node in ast.parse(block).body
            if isinstance(node, ast.ImportFrom)
        ]
        assert len(imports) > 10
        for node in imports:
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert getattr(module, alias.name, None) is not None, (node.module, alias.name)
