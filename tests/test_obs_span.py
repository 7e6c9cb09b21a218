"""SpanTracer mechanics: stacks, offsets, and instrumented worlds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.errors import ReproError
from repro.obs import Telemetry
from repro.obs.span import LEAF_KINDS, Span, SpanTracer
from repro.vmpi.communicator import Communicator
from repro.vmpi.world import VirtualWorld


class TestSpanTracer:
    def test_begin_end_builds_parentage_from_stack(self):
        tr = SpanTracer()
        outer = tr.begin("outer", "phase", 0.0)
        inner = tr.begin("inner", "phase", 1.0)
        tr.end(2.0)
        tr.end(3.0)
        spans = {s.name: s for s in tr.spans}
        assert spans["inner"].parent == outer
        assert spans["outer"].parent is None
        assert spans["inner"].t_start == 1.0
        assert spans["inner"].duration == 1.0
        assert spans["outer"].duration == 3.0
        assert tr.current_id is None
        assert inner != outer

    def test_end_without_open_span_raises(self):
        with pytest.raises(ReproError):
            SpanTracer().end(1.0)

    def test_record_defaults_to_stack_parent(self):
        tr = SpanTracer()
        outer = tr.begin("outer", "step", 0.0)
        leaf = tr.record("ar", "collective", 0.5, 0.25, ranks=(0, 1))
        tr.end(1.0)
        root = tr.record("free", "compute", 0.0, 0.1)
        assert leaf.parent == outer
        assert root.parent is None
        assert leaf.ranks == (0, 1)

    def test_time_offset_shifts_all_recorded_times(self):
        tr = SpanTracer()
        tr.time_offset = 100.0
        tr.begin("job", "job", 0.0)
        tr.record("leaf", "compute", 1.0, 2.0)
        span = tr.end(5.0)
        assert span.t_start == 100.0
        assert span.t_end == 105.0
        leaf = [s for s in tr.spans if s.name == "leaf"][0]
        assert leaf.t_start == 101.0
        assert max(s.t_end for s in tr.spans) == 105.0

    def test_span_context_manager_reads_clock_twice(self):
        tr = SpanTracer()
        ticks = iter([1.0, 4.0])
        with tr.span("scoped", "phase", lambda: next(ticks)):
            pass
        (s,) = tr.spans
        assert (s.t_start, s.duration) == (1.0, 3.0)

    def test_span_dict_round_trip(self):
        s = Span(
            span_id=3, name="ar", kind="collective", t_start=1.5,
            duration=0.5, parent=1, category="str_comm", ranks=(2, 3),
            attrs={"nbytes": 128, "last_arrival": 3},
        )
        assert Span.from_dict(s.to_dict()) == s


class TestWorldInstrumentation:
    def test_world_span_is_nullcontext_without_tracer(self, small_world):
        with small_world.span("x", "phase") as token:
            assert token is None
        assert small_world.tracer is None

    def test_collectives_become_leaf_spans(self, small_world):
        tele = Telemetry()
        tele.install(small_world)
        comm = Communicator(small_world, range(4), label="t.g0")
        comm.allreduce({r: np.ones(8) for r in range(4)})
        leaves = [s for s in tele.tracer.spans if s.kind in LEAF_KINDS]
        assert any(s.kind == "collective" for s in leaves)
        coll = [s for s in leaves if s.kind == "collective"][0]
        assert coll.attrs["comm"] == "t.g0"
        assert coll.attrs["nbytes"] > 0
        assert coll.attrs["last_arrival"] in coll.ranks

    def test_telemetry_does_not_perturb_the_model(self, small_machine):
        """Installing telemetry changes neither physics nor clocks."""
        inp = small_test()

        def run(with_tele):
            world = VirtualWorld(small_machine)
            if with_tele:
                Telemetry().install(world)
            sim = CgyroSimulation(world, range(world.n_ranks), inp)
            sim.step()
            return sim.gather_h(), world.clock.copy()

        h0, c0 = run(False)
        h1, c1 = run(True)
        np.testing.assert_array_equal(h0, h1)
        np.testing.assert_array_equal(c0, c1)

    def test_solver_step_produces_balanced_tree(self, small_world):
        tele = Telemetry()
        tele.install(small_world)
        sim = CgyroSimulation(
            small_world, range(small_world.n_ranks), small_test()
        )
        sim.step()
        assert tele.tracer.current_id is None  # every span closed
        kinds = {s.kind for s in tele.tracer.spans}
        assert {"phase", "collective"} <= kinds
        # leaves either nest under a recorded phase or are roots (e.g.
        # cmat-assembly charges during construction)
        by_id = {s.span_id: s for s in tele.tracer.spans}
        for s in (s for s in tele.tracer.spans if s.kind in LEAF_KINDS):
            assert s.parent is None or s.parent in by_id
