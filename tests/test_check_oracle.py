"""Differential oracle: shared-cmat ensemble vs independent baselines."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check import MODE_TOLERANCES, EquivalenceReport, differential_oracle
from repro.cgyro.presets import small_test
from repro.errors import InputError
from repro.machine.presets import generic_cluster
from repro.perf import render_equivalence_report

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def _inputs(k):
    return [
        small_test(
            name=f"m{i}", nonlinear=True, dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i)
        )
        for i in range(k)
    ]


@pytest.fixture(scope="module")
def member_report():
    machine = generic_cluster(n_nodes=4, ranks_per_node=4)
    return differential_oracle(_inputs(2), machine, n_reports=2)


class TestMemberMode:
    def test_exact_equivalence(self, member_report):
        rep = member_report
        assert rep.ok, rep.render()
        assert rep.mode == "member"
        assert rep.max_abs == 0.0  # order-identical math: bit-exact
        assert rep.max_rel == 0.0
        assert (rep.rtol, rep.atol) == MODE_TOLERANCES["member"]

    def test_report_geometry(self, member_report):
        rep = member_report
        assert rep.k == 2
        assert rep.n_reports == 2
        assert rep.ensemble_ranks == 16
        assert rep.baseline_ranks == 8  # member's own rank count
        assert len(rep.checks) == 2 * 2  # (interval, member) pairs
        intervals = {c.interval for c in rep.checks}
        assert intervals == {1, 2}
        for c in rep.checks:
            assert tuple(f.field for f in c.fields) == ("state", "flux", "phi2")

    def test_json_round_trip_is_byte_identical(self, member_report):
        text = member_report.to_json()
        again = EquivalenceReport.from_json(text)
        assert again.to_json() == text
        # verdict-relevant content survives exactly (scale is rounded
        # for byte stability, so full dataclass equality is not claimed)
        assert again.ok == member_report.ok
        assert again.max_abs == member_report.max_abs
        assert again.max_rel == member_report.max_rel
        assert len(again.checks) == len(member_report.checks)

    def test_render_verdict(self, member_report):
        out = render_equivalence_report(member_report)
        assert "EQUIVALENT" in out
        assert "(exact)" in out  # exact tolerance is called out

    def test_diverged_render(self, member_report):
        import dataclasses

        bad_field = dataclasses.replace(
            member_report.checks[0].fields[0], ok=False, max_abs=1.0
        )
        bad_check = dataclasses.replace(
            member_report.checks[0], fields=(bad_field,)
        )
        bad = dataclasses.replace(member_report, checks=(bad_check,))
        assert not bad.ok
        assert "DIVERGED" in bad.render()


class TestFullMode:
    def test_tolerance_bounded_equivalence(self):
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        rep = differential_oracle(_inputs(2), machine, baseline="full")
        assert rep.ok, rep.render()
        assert rep.mode == "full"
        assert rep.baseline_ranks == 16  # the whole machine
        assert (rep.rtol, rep.atol) == MODE_TOLERANCES["full"]
        # different decomposition -> different reduction order: the
        # deltas are real but must sit far below the bound
        assert rep.max_rel <= rep.rtol

    def test_unknown_mode_rejected(self):
        machine = generic_cluster(n_nodes=2, ranks_per_node=4)
        with pytest.raises(InputError):
            differential_oracle(_inputs(2), machine, baseline="bogus")


@pytest.mark.oracle
@pytest.mark.parametrize(
    "fname,k,overlap",
    [
        ("oracle_nl03c_k2.json", 2, "off"),
        ("oracle_nl03c_k4.json", 4, "off"),
        ("oracle_nl03c_k2_overlap.json", 2, "full"),
        ("oracle_nl03c_k4_overlap.json", 4, "full"),
    ],
)
def test_nl03c_golden(fname, k, overlap, golden_generator):
    """A fresh nl03c-scale oracle run must reproduce the committed
    golden report byte for byte (member mode: deltas exactly zero).

    The overlapped cases run the ensemble under the fully pipelined
    nonblocking schedule against blocking baselines — max_abs must
    still be exactly 0.0, certifying the pipelined schedules preserve
    arithmetic order bit for bit.
    """
    gen = golden_generator
    report = differential_oracle(
        gen.nl03c_members(k),
        gen.nl03c_machine(k),
        n_reports=1,
        baseline="member",
        overlap=overlap,
    )
    assert report.ok, report.render()
    assert report.max_abs == 0.0
    assert report.overlap == overlap
    golden = (GOLDEN_DIR / fname).read_text()
    assert report.to_json() == golden
