"""Span exporters: byte-stable JSONL round-trip, member-lane Chrome."""

from __future__ import annotations

import json

from repro.cgyro.presets import small_test
from repro.machine.presets import generic_cluster
from repro.obs import Telemetry
from repro.obs.export import export_spans_chrome, export_spans_jsonl, load_spans_jsonl
from repro.obs.span import Span
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble


def _ensemble_telemetry():
    world = VirtualWorld(generic_cluster(n_nodes=4, ranks_per_node=4))
    tele = Telemetry()
    tele.install(world)
    inputs = [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(4)
    ]
    XgyroEnsemble(world, inputs).step()
    return world, tele


class TestJsonl:
    def test_round_trip_is_byte_stable(self, tmp_path):
        _, tele = _ensemble_telemetry()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        n = export_spans_jsonl(tele.tracer.spans, p1)
        assert n == len(tele.tracer.spans)
        loaded = load_spans_jsonl(p1)
        assert tuple(loaded) == tele.tracer.spans
        export_spans_jsonl(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_line_is_skipped_on_load(self, tmp_path):
        p = tmp_path / "s.jsonl"
        export_spans_jsonl(
            [Span(0, "a", "compute", 0.0, 1.0)], p
        )
        first = p.read_text().splitlines()[0]
        assert json.loads(first) == {"format": "repro-spans-v1"}
        assert len(load_spans_jsonl(p)) == 1


class TestSpanChrome:
    def test_member_attr_maps_to_pid_lane(self, tmp_path):
        spans = [
            Span(0, "job", "job", 0.0, 10.0),
            Span(1, "m0.phase", "phase", 0.0, 5.0, parent=0,
                 attrs={"member": 0}),
            Span(2, "ar", "collective", 0.0, 1.0, parent=1, ranks=(0,),
                 attrs={"nbytes": 64}),
            Span(3, "m1.phase", "phase", 5.0, 5.0, parent=0,
                 attrs={"member": 1}),
        ]
        path = tmp_path / "t.json"
        export_spans_chrome(spans, path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M"
        }
        assert names == {0: "ensemble", 1: "member 0", 2: "member 1"}
        # the collective inherits member 0 through its parent chain
        coll = [e for e in events if e.get("name") == "ar"][0]
        assert coll["pid"] == 1
        counters = [e for e in events if e["ph"] == "C"]
        assert any(e["name"] == "bytes_in_flight" for e in counters)


class TestVmpiChromeMemberLanes:
    """Collective leaf spans of a real ensemble get per-member pids."""

    def test_member_comms_land_on_member_pids(self, tmp_path):
        _, tele = _ensemble_telemetry()
        path = tmp_path / "trace.json"
        export_spans_chrome(tele.tracer.spans, path)
        events = json.loads(path.read_text())["traceEvents"]
        meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert meta[0] == "ensemble"
        assert {p for p in meta if p > 0}  # member lanes exist
        collectives = [
            e for e in events if e["ph"] == "X" and e["cat"] == "collective"
        ]
        member_events = [e for e in collectives if e["pid"] > 0]
        ensemble_events = [e for e in collectives if e["pid"] == 0]
        # per-member str AllReduces on member lanes, ensemble-wide coll
        # AllToAlls on the shared lane
        assert member_events and ensemble_events
        assert all(".m" in e["name"] for e in member_events)
        assert all("xgyro.coll." in e["name"] for e in ensemble_events)


class TestServiceSpanExport:
    """Service-level span trees (scheduler lane + marker events)."""

    @staticmethod
    def _service_telemetry():
        from repro.check.invariants import builtin_scenarios
        from repro.obs.monitor import ServiceMonitor

        scenario = next(
            s
            for s in builtin_scenarios(smoke=True)
            if s.name == "crash-resume"
        )
        tele = Telemetry()
        service = scenario.build(
            telemetry=tele, monitor=ServiceMonitor(window_s=60.0)
        )
        service.run(scenario.horizon_s)
        return tele

    def test_chrome_trace_has_service_lane_and_markers(self, tmp_path):
        tele = self._service_telemetry()
        p = tmp_path / "svc.json"
        n = export_spans_chrome(tele.tracer.spans, p)
        assert n == len(tele.tracer.spans)
        doc = json.loads(p.read_text())
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        # scheduler-level spans (no owning member) land on pid 0
        names = {e["name"] for e in complete if e["pid"] == 0}
        assert "service" in names
        markers = [e for e in complete if e["cat"] == "marker"]
        assert markers, "control-plane marker spans missing"
        assert {m["name"] for m in markers} >= {"service.crash"}
        assert all(m["dur"] == 0.0 for m in markers)
        meta = [e for e in events if e["ph"] == "M"]
        assert any(
            e["pid"] == 0 and e["args"]["name"] == "ensemble" for e in meta
        )

    def test_service_span_jsonl_round_trip(self, tmp_path):
        tele = self._service_telemetry()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_spans_jsonl(tele.tracer.spans, p1)
        loaded = load_spans_jsonl(p1)
        assert tuple(loaded) == tele.tracer.spans
        export_spans_jsonl(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_open_spans_synthesized_at_now(self):
        from repro.obs.span import SpanTracer

        tracer = SpanTracer()
        tracer.begin("service", "service", 0.0)
        tracer.begin("svc.job", "job", 10.0)
        live = tracer.open_spans(25.0)
        assert [s.name for s in live] == ["service", "svc.job"]
        assert all(s.attrs.get("open") for s in live)
        job = live[-1]
        assert job.duration == 15.0
        assert job.parent == live[0].span_id
        # pure read: the stack is untouched
        assert len(tracer.open_spans(30.0)) == 2
