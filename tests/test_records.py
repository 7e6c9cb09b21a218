"""The record codec as a contract: same bytes out, garbage refused the
same way everywhere, no hand-written serialiser growing back.

- **golden artifacts** — one instance of every byte-stable artifact,
  written by the writer a user would reach it by, must reproduce the
  digests in ``tests/goldens/artifact_bytes.json`` (recorded with the
  hand-written ``to_dict`` bodies still in place);
- **loaders refuse garbage** — every file loader, fed a torn file, a
  JSON list, an object missing a key, one with a stray key, a wrong or
  missing ``format`` tag and a path that is not there, raises *its own*
  :class:`~repro.errors.ReproError` subclass naming the file and the key
  or line; a truncated, key-dropped or byte-flipped file loads or raises
  a ``ReproError`` — never anything else;
- **round trip** — for every record class, ``load(type(x), dump(x)) == x``
  over instances drawn from the field types, and ``dump`` survives a
  sorted-keys JSON round trip unchanged;
- **census** — a class under ``src/repro`` that defines ``to_dict`` or
  ``from_dict`` itself is one of the six stateful aggregates, and
  ``json.loads`` lives in the codec alone.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import records
from repro.campaign.request import RequestQueue, SimRequest
from repro.cgyro.io import write_input_file
from repro.cgyro.params import CgyroInput
from repro.cgyro.presets import small_test
from repro.check.oracle import EquivalenceReport, FieldDelta, MemberCheck
from repro.cli import main as repro_main
from repro.collision.params import SpeciesParams
from repro.errors import (
    CampaignError,
    FaultPlanError,
    PlanError,
    ReproError,
    ServiceError,
)
from repro.machine.presets import generic_cluster
from repro.obs.export import export_spans_jsonl, load_spans_jsonl
from repro.obs.gate import load_bench_records, write_bench_records
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    AlertRule,
    WindowRollup,
    default_rulebook,
    dump_rulebook,
    export_rollups_jsonl,
    load_rollups_jsonl,
    load_rulebook,
)
from repro.obs.span import Span
from repro.plan.artifact import Plan, PlanChoice, load_plan
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.health import NodeHealthTracker
from repro.service.journal import ServiceJournal
from repro.service.pool import ElasticNodePool
from repro.vmpi.export import export_trace_json, load_trace_json
from repro.vmpi.tracer import CollectiveEvent, TraceLog

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
SRC = Path(repro.__file__).resolve().parent


# ----------------------------------------------------------------------
# golden artifacts
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def artifact_digests(golden_generator):
    return golden_generator.artifact_bytes()


def _golden_artifacts():
    return json.loads((GOLDEN_DIR / "artifact_bytes.json").read_text())


@pytest.mark.parametrize("name", sorted(_golden_artifacts()))
def test_golden_artifact_bytes(name, artifact_digests):
    """Every artifact, as its writer emits it, is byte-identical to the
    one the hand-written serialisers wrote."""
    assert sorted(artifact_digests) == sorted(_golden_artifacts())
    assert artifact_digests[name] == _golden_artifacts()[name]


# ----------------------------------------------------------------------
# one small instance of every loadable file
# ----------------------------------------------------------------------
def _event(seq: int) -> CollectiveEvent:
    return CollectiveEvent(
        seq=seq, kind="allreduce", comm_label="m0.comm1.g0", ranks=(0, 1, 2),
        n_nodes=1, nbytes=256, algorithm="ring", t_start=0.5 * seq,
        cost_s=1e-4, category="str_comm", nonblocking=bool(seq % 2),
    )


def _write_trace(path):
    trace = TraceLog()
    for seq in range(3):
        trace.record(_event(seq))
    export_trace_json(trace, path)


def _write_spans(path):
    export_spans_jsonl(
        [
            Span(0, "step 0", "step", 0.0, 2.0),
            Span(1, "allreduce [g0]", "collective", 0.5, 0.25, parent=0,
                 category="str_comm", ranks=(0, 1), attrs={"nbytes": 64}),
        ],
        path,
    )


def _write_rollups(path):
    export_rollups_jsonl(
        [
            WindowRollup(0, 0.0, 60.0, {"arrivals": 3.0, "ttr_p99_s": float("nan")},
                         {"0": 0.5}),
            WindowRollup(1, 60.0, 120.0, {"arrivals": 1.0, "ttr_p99_s": 9.5}),
        ],
        path,
    )


def _plan() -> Plan:
    return Plan(
        machine_name="generic-cluster-4n", input_name="small",
        signature_key="abc123", n_members=5, steps_per_report=10,
        choice=PlanChoice(k=2, n_nodes=2, nodes=(1, 3), ranks_per_member=4,
                          nc_counts=(3, 5)),
        predicted_s=1.25, default_predicted_s=1.5,
        predicted_breakdown={"str_comm": 0.5, "coll_comm": 0.75},
        seed=7, method="exhaustive+anneal", n_evaluated=42,
    )


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        specs=(
            FaultSpec("rank_crash", at_step=3, rank=5),
            FaultSpec("link_slowdown", at_step=0, factor=2.5, phase="coll_comm"),
        ),
        detection_timeout_s=12.5,
        seed=42,
    )


def _write_queue(path):
    RequestQueue(
        SimRequest(request_id=f"r{i}", input=small_test(name=f"m{i}"),
                   arrival_s=float(i), tenant="alice", deadline_s=60.0)
        for i in range(2)
    ).to_json(path)


def _write_wal(path):
    machine = generic_cluster(n_nodes=2, ranks_per_node=4)
    journal = ServiceJournal()
    journal.append(
        "begin",
        {"t": 0.0, "horizon_s": 10.0, "pool": ElasticNodePool(machine).to_dict(),
         "health": NodeHealthTracker().to_dict()},
    )
    journal.append("pool", {"t": 1.0, "op": "grow", "nodes": [1], "ready_at": 2.0})
    journal.append("end", {"t": 10.0})
    journal.to_file(path)


def _write_metrics(path):
    reg = MetricsRegistry()
    reg.counter("calls_total", kind="allreduce").inc(3)
    reg.gauge("queue_depth").set(2)
    reg.histogram("wait_seconds", comm="g0").observe(0.01)
    records.write_json(path, reg.to_dict(), indent=1)


def _load_metrics(path):
    # the body of ``repro metrics --load``
    return MetricsRegistry.from_dict(
        records.read_json(path, error=ReproError), what=str(path)
    )


def _write_equivalence(path):
    Path(path).write_text(
        EquivalenceReport(
            mode="member", k=1, n_reports=1, machine="generic", ensemble_ranks=4,
            baseline_ranks=4, rtol=0.0, atol=0.0,
            checks=(MemberCheck(0, "m0", 0, (FieldDelta("h", 0.0, 0.0, 1.5, True),)),),
        ).to_json()
    )


@dataclasses.dataclass(frozen=True)
class Loader:
    """One file loader under test.  ``at`` is the path (keys / list
    indices; for JSONL the first entry is the 0-based line) of the
    object whose ``key`` is required; ``tagged`` says whether the file
    carries a ``format`` tag (line 0 of a JSONL file, else top level)."""

    name: str
    write: typing.Callable
    load: typing.Callable
    error: type
    at: tuple
    key: str
    tagged: bool
    jsonl: bool = False


LOADERS = [
    Loader("trace", _write_trace, load_trace_json, ReproError,
           ("events", 1), "seq", True),
    Loader("spans", _write_spans, load_spans_jsonl, ReproError,
           (2,), "span_id", True, jsonl=True),
    Loader("rollups", _write_rollups, load_rollups_jsonl, ReproError,
           (1,), "t_end", True, jsonl=True),
    Loader("rulebook", lambda p: dump_rulebook(default_rulebook(), p),
           load_rulebook, ReproError, ("rules", 0), "name", False),
    Loader("bench", lambda p: write_bench_records({"b": {"wall_s": 1.5}}, p),
           load_bench_records, ReproError, (), "records", True),
    Loader("plan", lambda p: _plan().save(p), load_plan, PlanError,
           ("choice",), "k", True),
    Loader("queue", _write_queue, lambda p: RequestQueue.from_json(Path(p)),
           CampaignError, ("requests", 1), "input", False),
    Loader("faults", lambda p: _fault_plan().to_file(p), FaultPlan.from_file,
           FaultPlanError, ("specs", 0), "kind", False),
    Loader("wal", _write_wal, ServiceJournal.from_file, ServiceError,
           (1,), "payload", False, jsonl=True),
    Loader("metrics", _write_metrics, _load_metrics, ReproError,
           ("histograms", 0), "counts", False),
    Loader("equivalence", _write_equivalence,
           lambda p: EquivalenceReport.from_json(Path(p).read_text()), ReproError,
           ("checks", 0), "fields", True),
]
BY_NAME = {ld.name: ld for ld in LOADERS}
#: loaders that are handed text, not a path: they cannot name the file
TEXT_LOADERS = {"equivalence"}


@pytest.fixture(scope="module")
def good_files(tmp_path_factory):
    """name -> text of a well-formed file (each loader accepts its own)."""
    root = tmp_path_factory.mktemp("good")
    out = {}
    for ld in LOADERS:
        path = root / ld.name
        ld.write(path)
        ld.load(path)
        out[ld.name] = path.read_text()
    return out


def _mutate(ld: Loader, text: str, at: tuple, change) -> str:
    """``text`` with ``change(obj)`` applied to the object at ``at``."""
    if not ld.jsonl:
        doc = json.loads(text)
        node = doc
        for step in at:
            node = node[step]
        change(node)
        return json.dumps(doc)
    lines = text.splitlines()
    doc = json.loads(lines[at[0]])
    node = doc
    for step in at[1:]:
        node = node[step]
    change(node)
    lines[at[0]] = json.dumps(doc)
    return "\n".join(lines) + "\n"


def _garbage(ld: Loader, text: str, shape: str) -> str:
    tag_at = (0,) if ld.jsonl else ()
    if shape == "torn":
        return text[: len(text) // 2]
    if shape == "list":
        return "[1, 2]\n"
    if shape == "missing-key":
        return _mutate(ld, text, ld.at, lambda node: node.pop(ld.key))
    if shape == "stray-key":
        return _mutate(ld, text, ld.at, lambda node: node.update(bogus=1))
    if shape == "wrong-tag":
        return _mutate(ld, text, tag_at, lambda node: node.update(format="other-v9"))
    assert shape == "missing-tag"
    return _mutate(ld, text, tag_at, lambda node: node.pop("format"))


SHAPES = ("torn", "list", "missing-key", "stray-key", "wrong-tag", "missing-tag")
GARBAGE_CASES = [
    (ld.name, shape)
    for ld in LOADERS
    for shape in SHAPES
    if ld.tagged or not shape.endswith("-tag")
]


class TestLoadersRefuseGarbage:
    @pytest.mark.parametrize("name,shape", GARBAGE_CASES)
    def test_garbage_is_the_loaders_own_error(
        self, name, shape, good_files, tmp_path
    ):
        ld = BY_NAME[name]
        path = tmp_path / f"{name}.{shape}"
        path.write_text(_garbage(ld, good_files[name], shape))
        with pytest.raises(ld.error) as excinfo:
            ld.load(path)
        message = str(excinfo.value)
        assert type(excinfo.value).__module__ == "repro.errors"
        if name not in TEXT_LOADERS:
            assert str(path) in message
        if shape == "missing-key":
            assert f"missing key(s) ['{ld.key}']" in message
        elif shape == "stray-key":
            assert "'bogus'" in message
        elif shape == "wrong-tag":
            assert "other-v9" in message or "header" in message
        if ld.jsonl and shape in ("missing-key", "stray-key"):
            assert f"line {ld.at[0] + 1}" in message

    @pytest.mark.parametrize("name", sorted(set(BY_NAME) - TEXT_LOADERS))
    def test_missing_file_is_the_loaders_own_error(self, name, tmp_path):
        ld = BY_NAME[name]
        path = tmp_path / "not-there.json"
        with pytest.raises(ld.error, match="not-there.json"):
            ld.load(path)

    def test_trace_loader_no_longer_takes_a_bare_list(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([records.dump(_event(0))]))
        with pytest.raises(ReproError, match="not a JSON object"):
            load_trace_json(path)

    @pytest.mark.parametrize("name", ["spans", "rollups"])
    def test_jsonl_format_line_is_only_a_header(self, name, good_files, tmp_path):
        """A second line carrying ``format`` used to be skipped."""
        ld = BY_NAME[name]
        lines = good_files[name].splitlines()
        path = tmp_path / name
        path.write_text("\n".join(lines + [lines[0]]) + "\n")
        with pytest.raises(ReproError, match=f"line {len(lines) + 1}"):
            ld.load(path)

    @pytest.mark.parametrize("name", sorted(BY_NAME))
    @given(data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_one_damaged_file_loads_or_raises_repro_error(
        self, name, good_files, tmp_path, data
    ):
        """Truncate, drop a key from, or flip one character of a real
        file: the loader answers with a value or a ``ReproError`` —
        never a traceback of another type."""
        ld = BY_NAME[name]
        text = good_files[name]
        damage = data.draw(
            st.sampled_from(("truncate", "drop-key", "flip")), label="damage"
        )
        if damage == "truncate":
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        elif damage == "flip":
            at = data.draw(st.integers(0, len(text) - 1))
            char = data.draw(st.characters(min_codepoint=32, max_codepoint=126))
            text = text[:at] + char + text[at + 1:]
        else:
            lines = text.splitlines() if ld.jsonl else [text]
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            doc = json.loads(lines[i])
            node = doc
            while True:  # walk a random path and drop where it ends
                keys = sorted(node) if isinstance(node, dict) else range(len(node))
                key = data.draw(st.sampled_from(list(keys)))
                child = node[key]
                if isinstance(child, (dict, list)) and child and data.draw(
                    st.booleans()
                ):
                    node = child
                    continue
                del node[key]
                break
            lines[i] = json.dumps(doc, sort_keys=True)
            text = "\n".join(lines) + "\n"
        path = tmp_path / name
        path.write_text(text)
        try:
            ld.load(path)
        except ReproError:
            pass


class TestCliRefusesGarbage:
    """A garbage file is one ``error:`` line and exit code 2 (a
    traceback would exit 1)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-trace", "{file}"],
            ["metrics", "--load", "{file}"],
            ["perf-gate", "{file}", "{file}"],
            ["monitor", "--smoke", "--rules", "{file}"],
            ["campaign", "{file}"],
            ["campaign", "{requests}", "--plan", "{file}"],
            ["campaign", "{requests}", "--faults", "0:{file}"],
            ["run-cgyro", "{file}"],
            ["run-cgyro", "{case}", "--resume", "{file}"],
        ],
        ids=lambda argv: argv[0] + (argv[-2] if argv[-2].startswith("--") else ""),
    )
    @pytest.mark.parametrize("text", ['{"format": "repro-', "[1, 2]", '{"x": 1}'])
    def test_exit_two_with_one_error_line(self, argv, text, tmp_path, capsys):
        garbage = tmp_path / "garbage.json"
        garbage.write_text(text)
        requests = tmp_path / "requests.json"
        _write_queue(requests)
        write_input_file(small_test(), tmp_path / "input.cgyro")
        code = repro_main(
            [a.format(file=garbage, requests=requests, case=tmp_path) for a in argv]
        )
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(garbage) in err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["serve", "--seed", "-1", "--horizon", "100"], "seed must be >= 0, got -1"),
            (["chaos", "--smoke", "--scenario", "kitchen-sink", "--seed", "-3"],
             "seed must be >= 0, got -3"),
            (["campaign", "{requests}", "--steps", "0"], "steps must be >= 1, got 0"),
            (["serve", "--steps", "0", "--horizon", "100"], "steps must be >= 1, got 0"),
            (["trace", "--top-stalls", "-1"], "n >= 0, got -1"),
            (["plan", "--smoke", "--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["serve-seed", "chaos-seed", "campaign-steps", "serve-steps", "trace-top-stalls",
             "plan-seed"],
    )
    def test_exit_two_on_an_out_of_range_number(self, argv, named, tmp_path, capsys):
        """A negative seed, zero steps or a negative stall count is one
        ``error:`` line naming it; never a numpy traceback or a run that
        serves nothing and reports it served."""
        requests = tmp_path / "requests.json"
        _write_queue(requests)
        code = repro_main([a.format(requests=requests) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert "served" not in out and "steps 0" not in out

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["campaign", "{requests}", "--faults", "abc:{faults}"],
             "--faults wants JOB_INDEX:PLAN.json, got 'abc:"),
            (["campaign", "{requests}", "--flaky-node", "abc:{faults}"],
             "--flaky-node wants NODE:PLAN.json, got 'abc:"),
            (["serve", "--tenant", "a:x:1", "--horizon", "100"],
             "--tenant wants NAME:WEIGHT:SLO_S, got 'a:x:1'"),
            (["linear", "{case}", "--modes", "x"], "--modes wants comma-separated integers"),
            (["linear", "{case}", "--modes", ","], "--modes wants comma-separated integers"),
            (["campaign", "{requests}", "--max-batch", "0"], "max_batch must be >= 1, got 0"),
            (["plan", "{case}", "--members", "0"], "--members must be >= 1, got 0"),
        ],
        ids=["faults-key", "flaky-node-key", "tenant-weight", "linear-modes",
             "linear-modes-empty", "campaign-max-batch", "plan-members"],
    )
    def test_exit_two_on_a_malformed_option(self, argv, named, tmp_path, capsys):
        """A malformed option value is one ``error:`` line naming it;
        never an ``int()`` / ``float()`` traceback, nor an empty table."""
        requests, faults = tmp_path / "requests.json", tmp_path / "faults.json"
        _write_queue(requests)
        FaultPlan(specs=(FaultSpec("bitflip", at_step=0, rank=0),)).to_file(faults)
        write_input_file(small_test(), tmp_path / "input.cgyro")
        code = repro_main(
            [a.format(requests=requests, faults=faults, case=tmp_path) for a in argv]
        )
        out, err = capsys.readouterr()
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert "member(s)" not in out

    @pytest.mark.parametrize(
        "line,named",
        [
            ("N_RADIAL=abc", "N_RADIAL"),
            ("N_RADIAL=4.5", "N_RADIAL"),
            ("NU=0.1.2", "NU"),
            ("CONSERVE_MOMENTUM=yes", "CONSERVE_MOMENTUM"),
            ("MASS_1=heavy", "MASS_1"),
            ("DELTA_T=nan", "delta_t"),
            ("AMP=nan", "amp"),
            ("NU=inf", "nu"),
            ("DLNTDR_2=nan", "dlntdr"),
            ("TEMP_2=-inf", "temp"),
        ],
    )
    def test_run_cgyro_refuses_a_bad_value(self, line, named, tmp_path, capsys):
        """A value that is not a number, or not a finite one, is one
        ``error:`` line naming the file and the key; never a traceback
        or a run that prints ``nan``."""
        path = tmp_path / "input.cgyro"
        write_input_file(small_test(), path)
        text = path.read_text()
        path.write_text(text + line + "\n")
        code = repro_main(["run-cgyro", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err
        if named.isupper():  # a value that is no number: its line and key
            named = f"{path}:{len(text.splitlines()) + 1}: {named}"
        assert named in err

    @staticmethod
    def _corrupt_nan_counter(snap):
        snap["counters"][0]["value"] = float("nan")

    @staticmethod
    def _corrupt_inf_counter(snap):
        snap["counters"][0]["value"] = float("inf")

    @staticmethod
    def _corrupt_negative_bucket(snap):
        snap["histograms"][0]["counts"][0] = -5

    @staticmethod
    def _corrupt_counts_past_count(snap):
        histogram = snap["histograms"][0]
        histogram["counts"] = [0] * len(histogram["counts"])
        histogram["counts"][3], histogram["count"] = 1, 0

    @staticmethod
    def _corrupt_infinite_sum(snap):
        snap["histograms"][0]["sum"] = float("inf")

    @pytest.mark.parametrize(
        "corrupt,named",
        [
            ("_corrupt_nan_counter", "counter increment must be finite and >= 0, got nan"),
            ("_corrupt_inf_counter", "counter increment must be finite and >= 0, got inf"),
            ("_corrupt_negative_bucket", "not a histogram: counts [-5, 0, 1"),
            ("_corrupt_counts_past_count", "of 0 observation(s)"),
            ("_corrupt_infinite_sum", "summing to inf"),
        ],
        ids=["nan-counter", "inf-counter", "negative-bucket", "counts-past-count",
             "infinite-sum"],
    )
    def test_metrics_refuses_a_corrupt_snapshot(self, corrupt, named, tmp_path, capsys):
        """A snapshot whose counter is not finite, or whose histogram
        counts or sum no histogram could hold, is one ``error:`` line
        naming the file; never a quantile read off it (at the parent a
        bucket count of -5 read ``q=0.5: 600``)."""
        reg = MetricsRegistry()
        reg.counter("vmpi_collectives_total", kind="allreduce").inc(2)
        reg.histogram("vmpi_collective_cost_seconds", kind="allreduce").observe_each([5e-5, 0.2])
        snap = reg.to_dict()
        getattr(self, corrupt)(snap)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snap))
        code = repro_main(
            ["metrics", "--load", str(path), "--quantile", "vmpi_collective_cost_seconds:0.5"]
        )
        out, err = capsys.readouterr()
        assert code == 2, out
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert named in err and "q=0.5" not in out


# ----------------------------------------------------------------------
# the codec itself
# ----------------------------------------------------------------------
def _modules():
    """Every module under ``src/repro``, imported."""
    return [
        importlib.import_module(mod.name)
        for mod in pkgutil.walk_packages(repro.__path__, "repro.")
        if not mod.name.endswith("__main__")
    ]


def _record_classes():
    """Every ``Record`` subclass under ``src/repro``, plus the plain
    dataclasses the codec serves nested."""
    _modules()

    def walk(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from walk(sub)

    return sorted(
        {*walk(records.Record), CgyroInput, SpeciesParams},
        key=lambda c: c.__name__,
    )


RECORD_CLASSES = _record_classes()

_INPUTS = [
    small_test(),
    small_test(name="other", nu=0.2, nonlinear=True, dlntdr=(2.5, 3.5)),
    small_test(beta_e=0.01, n_toroidal=1, seed=9),
]
_KEYS = st.text("abc", max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.text("xyz", max_size=3),
    lambda kids: st.lists(kids, max_size=2) | st.dictionaries(_KEYS, kids, max_size=2),
    max_leaves=4,
)
#: classes whose constructors validate: drawn from valid instances
_VALID = {
    CgyroInput: st.sampled_from(_INPUTS),
    SpeciesParams: st.sampled_from(_INPUTS[0].species),
    AlertRule: st.sampled_from(default_rulebook()),
    PlanChoice: st.builds(
        lambda nodes, rpm, counts, overlap: PlanChoice(
            k=2, n_nodes=len(nodes), nodes=tuple(nodes), ranks_per_member=rpm,
            nc_counts=counts, overlap=overlap,
        ),
        st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True),
        st.integers(1, 8),
        st.none() | st.lists(st.integers(0, 9), max_size=4).map(tuple),
        st.sampled_from(("off", "str", "coll", "full")),
    ),
}


def _strategy(hint, nan: bool = False):
    """Instances of a codec type hint (the grammar of ``records._codec``)."""
    if hint in _VALID:
        return _VALID[hint]
    if hint is int:
        return st.integers(-10**9, 10**9)
    if hint is float:
        # no infinities: a derived ``end_s - start_s`` of two would be NaN
        return st.floats(allow_nan=nan, allow_infinity=False)
    if hint is str:
        return st.text(max_size=6)
    if hint is bool:
        return st.booleans()
    if hint is object:
        return _JSON
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        nan_null = getattr(hint, "record_nan_null", ())
        return st.builds(
            hint,
            **{
                f.name: _strategy(hints[f.name], nan and f.name in nan_null)
                for f in dataclasses.fields(hint)
            },
        )
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return st.none() | _strategy(args[0], nan)
    if origin in (list, tuple):
        return st.lists(_strategy(args[0], nan), max_size=3).map(origin)
    assert origin is dict, hint
    return st.dictionaries(_KEYS, _strategy(args[1], nan), max_size=3)


def _valid(x) -> bool:
    # FaultPlan is the one generically-built class that validates
    return not isinstance(x, FaultPlan) or x.detection_timeout_s >= 0


class TestRoundTrip:
    def test_the_codec_serves_the_classes_we_think(self):
        assert [c.__name__ for c in RECORD_CLASSES] == [
            "AbandonedRecord", "AlertEvent", "AlertRule", "CgyroInput",
            "ChaosReport", "CollectiveEvent", "EquivalenceReport", "FaultPlan",
            "FaultSpec", "FieldDelta", "HealthIncident", "IncidentReport",
            "InvariantCheck", "JobRecord", "MemberCheck", "Plan", "PlanChoice",
            "PoolSample", "RejectionRecord", "RequestRecord", "ServedRecord",
            "SimRequest", "Span", "SpeciesParams", "WaveRecord", "WindowRollup",
        ]

    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_load_inverts_dump(self, cls, data):
        try:
            x = data.draw(_strategy(cls))
        except ReproError:  # a FaultPlan with a negative timeout
            return
        d = records.dump(x)
        assert records.load(cls, d) == x
        # JSON-safe, and a sorted-keys round trip changes nothing
        again = json.loads(json.dumps(d, sort_keys=True))
        assert again == d
        assert records.dump(records.load(cls, again)) == d

    @pytest.mark.parametrize(
        "cls",
        [c for c in RECORD_CLASSES if getattr(c, "record_nan_null", ())],
        ids=lambda c: c.__name__,
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nan_travels_as_null(self, cls, data):
        x = data.draw(_strategy(cls, nan=True))
        d = records.dump(x)
        text = json.dumps(d, sort_keys=True, allow_nan=True)
        for name in cls.record_nan_null:
            assert "NaN" not in json.dumps(d[name])
        assert records.dump(records.load(cls, json.loads(text))) == d

    def test_derived_keys_sit_where_they_sat(self):
        from repro.campaign.report import RequestRecord, WaveRecord

        wave = WaveRecord(round=0, wave=1, start_s=2.0, end_s=5.0, n_jobs=1,
                          nodes_busy=2)
        assert list(wave.to_dict()) == [
            "round", "wave", "start_s", "end_s", "duration_s", "n_jobs",
            "nodes_busy",
        ]
        assert wave.to_dict()["duration_s"] == 3.0
        req = RequestRecord("r", "j", 0, 0.0, 1.0, 2.0, 4, 1)
        assert list(req.to_dict())[-2:] == ["queue_latency_s", "turnaround_s"]
        assert list(_fault_plan().to_dict()) == [
            "detection_timeout_s", "seed", "specs",
        ]
        request = SimRequest(request_id="a", input=small_test())
        assert list(request.to_dict())[-1] == "input"
        # a stale derived value is ignored on load, not trusted
        assert WaveRecord.from_dict({**wave.to_dict(), "duration_s": -1.0}) == wave

    def test_absent_iff_defaulted(self):
        d = _event(0).to_dict()
        del d["nonblocking"]  # has a default
        assert CollectiveEvent.from_dict(d) == dataclasses.replace(
            _event(0), nonblocking=False
        )
        del d["cost_s"]  # has none
        with pytest.raises(ReproError, match=r"missing key\(s\) \['cost_s'\]"):
            CollectiveEvent.from_dict(d)

    @pytest.mark.parametrize(
        "key,value,expected",
        [
            ("seq", True, "an integer"),
            ("seq", 1.0, "an integer"),
            ("seq", "1", "an integer"),
            ("t_start", "0.5", "a number"),
            ("t_start", None, "a number"),
            ("kind", 3, "a string"),
            ("nonblocking", 1, "true or false"),
            ("ranks", "012", "a list"),
            ("ranks", [0, "1"], r"ranks\[1\]: expected an integer"),
        ],
    )
    def test_values_are_type_checked(self, key, value, expected):
        d = {**_event(0).to_dict(), key: value}
        with pytest.raises(ReproError, match=f"{key}.*expected {expected}|{expected}"):
            CollectiveEvent.from_dict(d)

    def test_a_nested_refusal_names_its_path_and_the_callers_error(self):
        d = _plan().to_dict()
        d["choice"]["nodes"] = [1, "3"]
        with pytest.raises(PlanError, match=r"plan.json: choice: nodes\[1\]"):
            records.load(Plan, d, what="plan.json", error=PlanError)
        d = _plan().to_dict()
        d["choice"]["k"] = 0  # the constructor's own validation
        with pytest.raises(PlanError, match="plan.json: choice: k must be >= 1"):
            records.load(Plan, d, what="plan.json", error=PlanError)

    def test_from_dict_refuses_with_the_declared_error(self):
        with pytest.raises(CampaignError, match="missing"):
            SimRequest.from_dict({"request_id": "a"})
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(PlanError, match="repro-plan-v1"):
            Plan.from_dict({"format": "something-else"})

    def test_fault_plan_keys_follow_the_spec_fields(self):
        """No hand-kept ``allowed`` set: every ``FaultSpec`` field is an
        accepted key, anything else is refused."""
        for f in dataclasses.fields(FaultSpec):
            spec = {"kind": "slowdown", "at_step": 1}
            spec.setdefault(f.name, getattr(FaultSpec("slowdown", 1), f.name))
            assert FaultPlan.from_json(json.dumps({"specs": [spec]})).specs
        with pytest.raises(FaultPlanError, match="blast"):
            FaultPlan.from_json(
                '{"specs": [{"kind": "rank_crash", "at_step": 1, "blast": 9}]}'
            )

    def test_a_hint_outside_the_grammar_is_a_programming_error(self):
        @dataclasses.dataclass
        class Odd:
            x: typing.Set[int]

        with pytest.raises(TypeError, match="no rule"):
            records.dump(Odd({1}))

        @dataclasses.dataclass
        class Short:
            a: int
            b: int
            record_keys = ("a",)

        with pytest.raises(TypeError, match="omits a field"):
            records.dump(Short(1, 2))

    def test_field_plans_are_built_on_first_use(self):
        """Constructing a record resolves nothing: the per-collective
        constructors gained no work."""
        records._plan.cache_clear()
        _event(0)
        Span(0, "s", "step", 0.0, 1.0)
        assert records._plan.cache_info().currsize == 0
        _event(0).to_dict()
        assert records._plan.cache_info().currsize == 1


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------
#: the stateful aggregates that keep their own top-level serialisers
AGGREGATES = {
    "MetricsRegistry", "ReplayState", "ElasticNodePool", "NodeHealthTracker",
    "CampaignReport", "ServiceReport",
}


def test_no_hand_written_serialiser_outside_the_aggregates():
    """A class that defines ``to_dict`` / ``from_dict`` itself is the
    codec's mixin or one of the six aggregates — a flat dataclass that
    grows one again fails here."""
    owners = set()
    for module in _modules():
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and (
                {"to_dict", "from_dict"} & set(vars(cls))
            ):
                owners.add(cls.__name__)
    assert owners == AGGREGATES | {"Record"}


def test_json_loads_lives_in_the_codec():
    hits = {
        str(path.relative_to(SRC)): len(re.findall(r"json\.loads?\(", path.read_text()))
        for path in SRC.rglob("*.py")
    }
    # journal._copy's dumps/loads round trip is a deep copy, not a loader
    assert {k: v for k, v in hits.items() if v} == {
        "records.py": 1,
        "service/journal.py": 1,
    }
