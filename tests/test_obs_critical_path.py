"""Critical-path extraction: exactness laws, hypothesis-driven.

The extractor's contract is arithmetic, not statistical:

- the returned segments are contiguous and partition ``[t0, makespan]``,
  so the path duration equals the makespan *exactly* (endpoint
  difference, no summation error);
- spans not on the path are irrelevant — deleting any one of them
  reproduces the identical extraction;
- on a real instrumented run the path total equals the world's elapsed
  clock and ≥95% of it lands in named phase categories.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.errors import ReproError
from repro.obs import Telemetry
from repro.obs.critical import (
    IDLE,
    OVERLAPPED,
    extract_critical_path,
    render_telemetry_report,
)
from repro.obs.span import Span
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble

_CATS = ("str_comm", "str_compute", "coll_comm", "nl_compute", "")


def _span_ids(path):
    """Ids of the spans on the path, in path (ascending-time) order."""
    return tuple(s.span_id for s in path.segments if s.span_id is not None)


@st.composite
def leaf_spans(draw, min_size=1, max_size=24):
    """Random leaf-span lists on a 4-rank toy timeline."""
    n = draw(st.integers(min_size, max_size))
    spans = []
    for i in range(n):
        ranks = tuple(
            sorted(
                draw(
                    st.sets(
                        st.integers(0, 3), min_size=1, max_size=4
                    )
                )
            )
        )
        t0 = draw(
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
        )
        dur = draw(
            st.floats(1e-6, 5.0, allow_nan=False, allow_infinity=False)
        )
        kind = draw(st.sampled_from(("collective", "compute", "sync")))
        attrs = {}
        if draw(st.booleans()):
            attrs["last_arrival"] = draw(st.sampled_from(ranks))
        spans.append(
            Span(
                span_id=i,
                name=f"s{i}",
                kind=kind,
                t_start=t0,
                duration=dur,
                category=draw(st.sampled_from(_CATS)),
                ranks=ranks,
                attrs=attrs,
            )
        )
    return spans


class TestExtractionLaws:
    @given(leaf_spans())
    @settings(max_examples=200, deadline=None)
    def test_path_duration_equals_makespan_exactly(self, spans):
        path = extract_critical_path(spans)
        makespan = max(s.t_end for s in spans)
        # endpoint arithmetic: last segment ends at the makespan, first
        # starts at t0 (within the extractor's epsilon)
        assert path.segments[-1].t_end == makespan
        assert abs(path.segments[0].t_start) <= 1e-9
        assert abs(path.total_s - makespan) <= 1e-9

    @given(leaf_spans())
    @settings(max_examples=200, deadline=None)
    def test_segments_are_contiguous_and_ascending(self, spans):
        path = extract_critical_path(spans)
        for a, b in zip(path.segments, path.segments[1:]):
            assert a.t_end == b.t_start
            assert a.duration >= 0
        # per-category attribution re-sums to the path total
        assert sum(path.by_category().values()) == pytest.approx(
            path.total_s, abs=1e-9
        )

    @given(leaf_spans(min_size=2))
    @settings(max_examples=100, deadline=None)
    def test_removing_non_critical_span_changes_nothing(self, spans):
        path = extract_critical_path(spans)
        on_path = set(_span_ids(path))
        off_path = [s for s in spans if s.span_id not in on_path]
        for victim in off_path[:3]:
            pruned = [s for s in spans if s.span_id != victim.span_id]
            again = extract_critical_path(pruned)
            assert _span_ids(again) == _span_ids(path)
            assert again.total_s == path.total_s
            assert [
                (s.t_start, s.t_end, s.category) for s in again.segments
            ] == [(s.t_start, s.t_end, s.category) for s in path.segments]

    def test_no_leaves_raises(self):
        with pytest.raises(ReproError):
            extract_critical_path(
                [Span(0, "step", "step", 0.0, 1.0)]
            )

    def test_idle_gap_is_surfaced_not_smeared(self):
        spans = [
            Span(0, "a", "compute", 0.0, 1.0, ranks=(0,)),
            Span(1, "b", "compute", 3.0, 1.0, ranks=(0,)),
        ]
        path = extract_critical_path(spans)
        idles = [s for s in path.segments if s.category == IDLE]
        assert len(idles) == 1
        assert (idles[0].t_start, idles[0].t_end) == (1.0, 3.0)
        assert path.idle_s == pytest.approx(2.0)
        assert path.top_stalls()[0].duration == pytest.approx(2.0)

    def test_top_stalls_refuses_a_negative_count(self):
        """``gaps[:-1]`` would silently drop the shortest stall."""
        spans = [Span(0, "a", "compute", 0.0, 1.0, ranks=(0,)),
                 Span(1, "b", "compute", 3.0, 1.0, ranks=(0,))]
        path = extract_critical_path(spans)
        assert path.top_stalls(0) == []
        with pytest.raises(ReproError, match="n >= 0, got -1"):
            path.top_stalls(-1)

    def test_chain_follows_last_arrival(self):
        """The walk hops onto the rank that pinned the collective."""
        spans = [
            Span(0, "slow", "compute", 0.0, 2.0, ranks=(1,),
                 attrs={"last_arrival": 1}),
            Span(1, "fast", "compute", 0.0, 0.5, ranks=(0,),
                 attrs={"last_arrival": 0}),
            Span(2, "ar", "collective", 2.0, 1.0, ranks=(0, 1),
                 attrs={"last_arrival": 1}),
        ]
        path = extract_critical_path(spans)
        assert _span_ids(path) == (0, 2)  # slow rank chains, fast is off-path
        assert path.idle_s == 0.0


@st.composite
def leaf_spans_with_nonblocking(draw):
    """Leaf spans where some collectives carry nonblocking windows."""
    spans = draw(leaf_spans(min_size=2, max_size=24))
    out = []
    for s in spans:
        if s.kind == "collective" and draw(st.booleans()):
            s = Span(
                span_id=s.span_id,
                name=s.name,
                kind=s.kind,
                t_start=s.t_start,
                duration=s.duration,
                category="coll_comm",
                ranks=s.ranks,
                attrs=dict(s.attrs, nonblocking=True),
            )
        out.append(s)
    return out


class TestOverlappedAttribution:
    """The OVERLAPPED re-labeling: exact partition, no double-counting."""

    def test_compute_segment_split_by_hidden_window(self):
        """A nonblocking window strictly inside a path compute span
        carves out exactly its intersection as OVERLAPPED."""
        spans = [
            Span(0, "apply", "compute", 0.0, 4.0, category="str_compute",
                 ranks=(0,)),
            Span(1, "ia2a", "collective", 1.0, 2.0, category="coll_comm",
                 ranks=(0, 1), attrs={"nonblocking": True}),
        ]
        path = extract_critical_path(spans)
        assert set(_span_ids(path)) == {0}  # the hidden window is off-path
        cats = path.by_category()
        assert cats["str_compute"] == pytest.approx(2.0)
        assert cats[OVERLAPPED] == pytest.approx(2.0)
        assert sum(cats.values()) == pytest.approx(path.total_s, abs=1e-12)
        # the split pieces tile the compute span contiguously
        assert [(s.t_start, s.t_end, s.category) for s in path.segments] == [
            (0.0, 1.0, "str_compute"),
            (1.0, 3.0, OVERLAPPED),
            (3.0, 4.0, "str_compute"),
        ]

    def test_collective_segment_split_by_compute_window(self):
        """The exposed remainder of a nonblocking collective on the
        path stays comm; only the covered part is OVERLAPPED."""
        spans = [
            Span(0, "apply", "compute", 0.0, 2.0, category="coll_compute",
                 ranks=(0,)),
            Span(1, "ia2a", "collective", 1.0, 3.0, category="coll_comm",
                 ranks=(0, 1), attrs={"nonblocking": True,
                                      "last_arrival": 0}),
        ]
        path = extract_critical_path(spans)
        cats = path.by_category()
        assert cats[OVERLAPPED] == pytest.approx(1.0)  # [1, 2] covered
        assert cats["coll_comm"] == pytest.approx(2.0)  # [2, 4] exposed
        assert sum(cats.values()) == pytest.approx(path.total_s, abs=1e-12)

    def test_no_nonblocking_spans_means_no_overlapped(self):
        spans = [
            Span(0, "a", "compute", 0.0, 2.0, category="str_compute",
                 ranks=(0,)),
            Span(1, "ar", "collective", 2.0, 1.0, category="str_comm",
                 ranks=(0, 1), attrs={"last_arrival": 0}),
        ]
        path = extract_critical_path(spans)
        assert OVERLAPPED not in path.by_category()

    @given(leaf_spans_with_nonblocking())
    @settings(max_examples=200, deadline=None)
    def test_partition_invariant_survives_splitting(self, spans):
        """Overlap splitting never breaks the exact-partition laws:
        contiguous ascending segments, endpoint total, category sum."""
        path = extract_critical_path(spans)
        makespan = max(s.t_end for s in spans)
        assert path.segments[-1].t_end == makespan
        for a, b in zip(path.segments, path.segments[1:]):
            assert a.t_end == b.t_start
            assert a.duration >= 0
        assert sum(path.by_category().values()) == pytest.approx(
            path.total_s, abs=1e-9
        )
        # OVERLAPPED only ever replaces time, never adds it
        assert abs(path.total_s - makespan) <= 1e-9

    def test_instrumented_overlapped_ensemble_partitions_exactly(
        self, small_machine
    ):
        world = VirtualWorld(small_machine)
        tele = Telemetry()
        tele.install(world)
        inputs = [
            small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
            for i in range(4)
        ]
        ens = XgyroEnsemble(world, inputs, overlap="full")
        ens.step()
        path = extract_critical_path(tele.tracer.spans)
        cats = path.by_category()
        assert path.total_s == pytest.approx(world.elapsed(), abs=1e-12)
        assert sum(cats.values()) == pytest.approx(path.total_s, abs=1e-9)
        assert cats.get(OVERLAPPED, 0.0) > 0.0


class TestInstrumentedRuns:
    def test_single_simulation_path_covers_elapsed(self, small_world):
        tele = Telemetry()
        tele.install(small_world)
        sim = CgyroSimulation(
            small_world, range(small_world.n_ranks), small_test()
        )
        sim.step()
        path = extract_critical_path(tele.tracer.spans)
        assert path.total_s == pytest.approx(
            small_world.elapsed(), abs=1e-12
        )
        assert path.attributed_fraction >= 0.95

    def test_ensemble_path_covers_elapsed(self, small_machine):
        world = VirtualWorld(small_machine)
        tele = Telemetry()
        tele.install(world)
        inputs = [
            small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
            for i in range(4)
        ]
        ens = XgyroEnsemble(world, inputs)
        ens.step()
        path = extract_critical_path(tele.tracer.spans)
        assert path.total_s == pytest.approx(world.elapsed(), abs=1e-12)
        assert path.attributed_fraction >= 0.95
        report = render_telemetry_report(
            tele.tracer.spans, metrics=tele.metrics
        )
        assert "critical path" in report
        assert "collective bytes" in report
