"""Plumbing tests of the hostbench harness on ``tiny`` (``small_test``-sized) inputs.

Run explicitly — they are not part of the tier-1 suite::

    python -m pytest hostbench -q
"""

from __future__ import annotations

import copy
import json
import re
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostbench import __main__ as cli  # noqa: E402
from hostbench import metrics, trace, workloads  # noqa: E402
from hostbench.child import run_once  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_declared_contract():
    path = ROOT / "BENCHMARK.json"
    committed = json.loads(path.read_text())
    assert committed == metrics.contract(committed["command"], committed["run_seconds"])
    assert path.stat().st_size <= 64 * 1024
    assert committed["paths"] == ["hostbench"]
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16 and 1 <= len(committed["per_layer"]) <= 128
    declared = committed["workloads"] + committed["end_to_end"] + committed["per_layer"]
    names = [d["name"] for d in declared]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    for m in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_catalogue_names_the_workload_functions():
    assert [spec.name for spec in metrics.WORKLOADS] == list(workloads.WORKLOADS)
    prices = {spec.prices for spec in metrics.WORKLOADS if spec.prices}
    assert prices <= {m.name for m in metrics.PER_LAYER}


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """One whole run set at tiny size, with the fewest rounds that exercise every mode."""
    traces = tmp_path_factory.mktemp("traces")
    saved = dict(cli.MIN_ROUNDS)
    cli.MIN_ROUNDS.update({False: 2, True: 1})
    try:
        rec = cli.run_set(seed=1, size="tiny", seconds=0.0, trace_dir=str(traces))
    finally:
        cli.MIN_ROUNDS.update(saved)
    return rec, traces


def test_every_declared_metric_is_emitted_with_its_unit(record):
    rec, _ = record
    assert list(rec["workloads"]) == [spec.name for spec in metrics.WORKLOADS]
    for name, result in rec["workloads"].items():
        assert result["correct"] and result["failed"] == 0 and result["fail_share"] == 0.0, name
        assert set(result["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert set(result["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        for dropped, declared in (("per_layer", metrics.END_TO_END), ("end_to_end", metrics.PER_LAYER)):
            # the driver's --trace 0 line carries the end-to-end metrics, --trace 1 the layers
            line = json.loads(cli.driver_line({k: v for k, v in result.items() if k != dropped}))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert {k: v["unit"] for k, v in line["metrics"].items()} == {m.name: m.unit for m in declared}
            assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        assert all(q["median"] > 0 for q in result["end_to_end"].values())


def test_layers_land_where_the_workloads_say(record):
    layers = {name: result["per_layer"] for name, result in record[0]["workloads"].items()}
    # the checker runs only where a workload installs one; telemetry only in serve
    assert layers["steps_nl03c_k2"]["check.checker_calls"] == 0
    assert layers["serve_bursty_small"]["check.checker_calls"] == 0
    assert layers["oracle_nl03c_k2"]["check.checker_calls"] > 0
    assert layers["chaos_kitchen_sink"]["check.checker_calls"] > 0
    assert layers["serve_bursty_small"]["obs.metric_lookups"] > 0
    assert layers["chaos_kitchen_sink"]["obs.span_calls"] == 0
    assert layers["steps_nl03c_k2"]["obs.span_calls"] == 0
    assert layers["chaos_kitchen_sink"]["service.recoveries"] >= 1
    assert layers["chaos_kitchen_sink"]["service.wal_events"] > 0
    assert layers["steps_nl03c_k2"]["xgyro.steps"] == 12
    assert layers["steps_nl03c_k2"]["sim.makespan_s"] > 0
    assert layers["serve_bursty_small"]["sim.p99_ttr_s"] > 0
    for name, values in layers.items():
        assert 0 <= values["proc.unattributed_frac"] <= 0.15, name


def test_traced_samples_leave_a_perfetto_trace(record):
    _, traces = record
    files = sorted(traces.glob("*.trace.json"))
    assert len(files) == len(metrics.WORKLOADS)
    events = json.loads(files[0].read_text())["traceEvents"]
    spans = {name for entries in trace.TABLE.values() for name in entries}
    assert events and all(e["ph"] == "X" and e["name"] in spans and e["dur"] >= 0 for e in events)
    assert all(e["args"]["parent"] < e["args"]["id"] for e in events)


def test_compare_agrees_with_itself_and_catches_each_kind_of_drift(record, tmp_path):
    rec, _ = record
    path_a = tmp_path / "a.json"
    path_a.write_text(json.dumps(rec))

    def against(edit) -> int:
        other = copy.deepcopy(rec)
        edit(other["workloads"]["serve_bursty_small"])
        path_b = tmp_path / "b.json"
        path_b.write_text(json.dumps(other))
        return cli.compare(str(path_a), str(path_b))

    def slower(result):
        q = result["end_to_end"]["wall_s"]
        for key in ("median", "q1", "q3", "min"):
            q[key] *= 1.5
        q["values"] = [v * 1.5 for v in q["values"]]

    def extra_call(result):
        result["per_layer"]["vmpi.allreduce_calls"] += 1

    def more_failures(result):
        result["fail_share"] += 0.01

    assert against(lambda result: None) == 0
    assert against(slower) == 1
    assert against(extra_call) == 1
    assert against(more_failures) == 1


def test_self_times_of_a_sample_sum_to_at_most_its_wall():
    tracer = trace.Tracer()
    tracer.install()
    try:
        sample = run_once(workloads.steps_nl03c_k2(1, "tiny"), time.time(), tracer)
    finally:
        tracer.uninstall()
    summary = sample["trace"]
    assert 0 < summary["timed_self_sum_s"] <= sample["wall_s"] + 1e-9
    assert 0 <= summary["timed_unattributed_s"] <= sample["wall_s"]
    assert all(own <= total + 1e-12 for _, total, own in summary["spans"].values())
    # uninstall put the originals back
    from repro.vmpi import Communicator

    assert not hasattr(Communicator.allreduce, "__wrapped__")


def test_a_broken_correctness_check_fails_every_op():
    good = workloads.serve_bursty_small(1, "tiny")
    broken = good._replace(check=lambda result, reference: good.check(result, reference)._replace(ok=False))
    sample = run_once(broken, time.time())
    assert sample["ops"] > 0 and sample["failed"] == sample["ops"]
    spec = next(s for s in metrics.WORKLOADS if s.name == "serve_bursty_small")
    result = cli.summarise(spec, {"plain": [sample]}, traced=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] == 1.0


def test_a_wrong_dotted_name_raises_and_patches_nothing():
    from repro.vmpi import Communicator

    table = {"vmpi": {"vmpi.allreduce": "repro.vmpi.Communicator.allreduce",
                      "vmpi.renamed": "repro.vmpi.Communicator.no_such_collective"}}
    with pytest.raises(trace.TraceTableError, match="no_such_collective"):
        trace.Tracer(table).install()
    assert not hasattr(Communicator.allreduce, "__wrapped__")
    # the real table resolves
    for entries in trace.TABLE.values():
        for dotted in entries.values():
            trace.resolve(dotted)


def test_the_seed_draws_the_inputs_but_not_the_amount_of_work():
    one = run_once(workloads.steps_nl03c_k2(1, "tiny"), time.time())
    two = run_once(workloads.steps_nl03c_k2(2, "tiny"), time.time())
    again = run_once(workloads.steps_nl03c_k2(1, "tiny"), time.time())
    assert one["ops"] == two["ops"] == 24
    assert one["fingerprint"] == again["fingerprint"] != two["fingerprint"]
    assert one["facts"]["sim.makespan_s"] == two["facts"]["sim.makespan_s"]
