"""Bench-record schema and the two-sided perf gate."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs.gate import (
    compare_bench_records,
    load_bench_records,
    run_gate,
    write_bench_records,
)

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "benchmarks" / "baselines" / "BENCH.json"

BASE = {
    "figure2": {"xgyro_wall_s": 250.0, "speedup": 1.5},
    "memory": {"cmat_bytes": 1000.0},
}


def _with(bench, metric, value):
    """``BASE`` with one metric set to ``value``."""
    cur = {name: dict(metrics) for name, metrics in BASE.items()}
    cur[bench][metric] = value
    return cur


def _verdicts(result):
    return {(f.bench, f.metric): f.verdict for f in result.findings}


class TestRecords:
    def test_round_trip_is_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert write_bench_records(BASE, p1) == 2
        loaded = load_bench_records(p1)
        assert loaded == BASE
        write_bench_records(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_wrong_format(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format": "something-else", "records": {}}')
        with pytest.raises(ReproError):
            load_bench_records(p)


class TestGate:
    def test_within_the_band_is_ok(self):
        cur = {
            "figure2": {"xgyro_wall_s": 262.0, "speedup": 1.43},
            "memory": {"cmat_bytes": 1000.0},
        }
        result = compare_bench_records(cur, BASE)
        assert result.ok
        assert all(f.verdict == "ok" for f in result.findings)

    @pytest.mark.parametrize("metric", ["xgyro_wall_s", "speedup"])
    @pytest.mark.parametrize("factor", [1.06, 0.94])
    def test_six_percent_either_way_drifts(self, metric, factor):
        """No metric has a better direction: a wall that fell 6 % fails
        as surely as a speedup that fell 6 %."""
        cur = _with("figure2", metric, BASE["figure2"][metric] * factor)
        result = compare_bench_records(cur, BASE)
        assert not result.ok
        (bad,) = result.failures
        assert (bad.bench, bad.metric, bad.verdict) == ("figure2", metric, "drifted")
        assert bad.rel_change == pytest.approx(factor - 1.0)

    def test_new_metric_fails(self):
        cur = _with("memory", "brand_new", 7.0)
        result = compare_bench_records(cur, BASE)
        assert _verdicts(result)[("memory", "brand_new")] == "new"
        assert [f.metric for f in result.failures] == ["brand_new"]

    def test_missing_metric_fails(self):
        cur = {"figure2": {"speedup": 1.5}, "memory": {"cmat_bytes": 1000.0}}
        result = compare_bench_records(cur, BASE)
        assert _verdicts(result)[("figure2", "xgyro_wall_s")] == "missing"
        assert [f.metric for f in result.failures] == ["xgyro_wall_s"]

    def test_one_ulp_is_ok(self):
        cur = _with("figure2", "speedup", np.nextafter(1.5, 2.0))
        assert compare_bench_records(cur, BASE).ok

    def test_nan_drifts(self):
        cur = _with("memory", "cmat_bytes", float("nan"))
        assert _verdicts(compare_bench_records(cur, BASE))[
            ("memory", "cmat_bytes")] == "drifted"

    def test_run_gate_end_to_end(self, tmp_path):
        base_p = tmp_path / "base.json"
        cur_p = tmp_path / "cur.json"
        write_bench_records(BASE, base_p)
        write_bench_records(BASE, cur_p)
        result = run_gate(cur_p, base_p)
        assert result.ok
        text = result.render()
        assert "0 failure(s)" in text
        assert "figure2" in text


def _recorded_benches():
    """{bench name: file} of every ``bench_json.record("name", ...)``
    under ``benchmarks/``."""
    found = {}
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "bench_json"
            ):
                (name,) = node.args
                assert isinstance(name, ast.Constant), f"{path.name}:{node.lineno}"
                found[name.value] = path.name
    return found


def test_baseline_holds_every_recorded_bench_and_no_other():
    """A bench that records into a name the baseline lacks (or a
    baseline bench nothing records any more) is red before any bench
    runs."""
    recorded = _recorded_benches()
    baseline = load_bench_records(BASELINE)
    assert sorted(recorded) == sorted(baseline)
    assert sorted(p.name for p in BASELINE.parent.iterdir()) == ["BENCH.json"]
