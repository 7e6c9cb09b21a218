"""Trace lint, figure verification, deterministic replay, CLI."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.checker import CollectiveChecker
from repro.check.tracelint import (
    lint_trace,
    replay_trace,
    verify_figure1,
    verify_figure3,
)
from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.cli import main as cli_main
from repro.errors import ProtocolError
from repro.machine.presets import generic_cluster
from repro.vmpi.export import export_trace_json, load_trace_json
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def cgyro_events():
    """One checker-installed nonlinear CGYRO step on 8 ranks."""
    world = VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4))
    world.install_checker(CollectiveChecker())
    CgyroSimulation(world, range(world.n_ranks), small_test(nonlinear=True)).step()
    return list(world.trace.events)


@pytest.fixture(scope="module")
def xgyro_events():
    """One checker-installed step of a k=4 shared-cmat ensemble."""
    world = VirtualWorld(generic_cluster(n_nodes=4, ranks_per_node=4))
    world.install_checker(CollectiveChecker())
    inputs = [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(4)
    ]
    XgyroEnsemble(world, inputs).step()
    return list(world.trace.events)


class TestLint:
    def test_clean_trace_is_ok(self, cgyro_events):
        rep = lint_trace(cgyro_events)
        assert rep.ok
        assert rep.n_events == len(cgyro_events)
        assert rep.labels
        assert rep.render().endswith("OK")

    def test_seq_regression(self, cgyro_events):
        ev = cgyro_events[3]
        bad = cgyro_events[:4] + [dataclasses.replace(ev, seq=ev.seq - 1)]
        rep = lint_trace(bad)
        assert any(p.code == "seq-order" for p in rep.problems)

    def test_unknown_kind(self, cgyro_events):
        bad = [dataclasses.replace(cgyro_events[0], kind="gossip")]
        rep = lint_trace(bad)
        assert any(p.code == "unknown-kind" for p in rep.problems)

    def test_duplicate_ranks(self, cgyro_events):
        ev = cgyro_events[0]
        bad = [dataclasses.replace(ev, ranks=(ev.ranks[0],) * 2)]
        rep = lint_trace(bad)
        assert any(p.code == "ranks" for p in rep.problems)

    def test_negative_byte_count(self, cgyro_events):
        bad = [dataclasses.replace(cgyro_events[0], nbytes=-64)]
        rep = lint_trace(bad)
        assert any(p.code == "nbytes" for p in rep.problems)

    @pytest.mark.parametrize("ranks", [(-1, 0), (0, -3)], ids=["first", "second"])
    def test_negative_rank(self, cgyro_events, ranks):
        """A rank below 0 used to lint and replay clean."""
        bad = [dataclasses.replace(cgyro_events[0], ranks=ranks)]
        rep = lint_trace(bad)
        assert [p.code for p in rep.problems] == ["ranks"]
        assert "negative rank" in rep.render()

    def test_label_aliasing_is_partial_participation(self, cgyro_events):
        """Re-labelling one event onto another group's label: the lint
        sees a collective some of the label's members skipped."""
        labels = {}
        for ev in cgyro_events:
            labels.setdefault(ev.comm_label, ev.ranks)
        (l1, r1), (l2, r2) = list(labels.items())[:2]
        assert r1 != r2
        bad = [
            dataclasses.replace(ev, comm_label=l1) if ev.comm_label == l2 else ev
            for ev in cgyro_events
        ]
        rep = lint_trace(bad)
        assert any(p.code == "partial-participation" for p in rep.problems)
        assert "missing" in rep.render()

    def test_time_overlap(self, cgyro_events):
        ev = cgyro_events[0]
        again = dataclasses.replace(ev, seq=ev.seq + 1)  # same start time:
        rep = lint_trace([ev, again])  # ranks still busy -> overlap
        assert any(p.code == "overlap" for p in rep.problems)


class TestFigureStructure:
    def test_cgyro_matches_figure1(self, cgyro_events):
        rep = verify_figure1(cgyro_events)
        assert rep.ok, rep.render()

    def test_xgyro_matches_figure3(self, xgyro_events):
        rep = verify_figure3(xgyro_events)
        assert rep.ok, rep.render()

    def test_xgyro_violates_figure1(self, xgyro_events):
        """The separation IS the paper's change: an XGYRO trace must
        fail the CGYRO same-communicator check."""
        rep = verify_figure1(xgyro_events)
        assert not rep.ok
        assert any("str and coll" in p.message for p in rep.problems)

    def test_cgyro_violates_figure3(self, cgyro_events):
        rep = verify_figure3(cgyro_events)
        assert not rep.ok

    def test_unpaired_transpose_flagged(self, cgyro_events):
        a2a = [
            e for e in cgyro_events
            if e.kind == "alltoall" and e.category == "coll_comm"
        ]
        assert a2a
        bad = [e for e in cgyro_events if e is not a2a[0]]
        rep = verify_figure1(bad)
        assert any("unpaired" in p.message for p in rep.problems)


class TestReplay:
    def test_clean_traces_replay(self, cgyro_events, xgyro_events):
        assert replay_trace(cgyro_events).n_completed > 0
        assert replay_trace(xgyro_events).n_completed > 0

    def test_replay_preserves_collective_count(self, cgyro_events):
        ck = replay_trace(cgyro_events)
        assert ck.n_completed == len(cgyro_events)

    def test_membership_drift_raises(self, cgyro_events):
        """Aliasing a label onto a different rank group — the trace of a
        mis-wired communicator — must fail replay, not pass silently."""
        labels = {}
        for ev in cgyro_events:
            labels.setdefault(ev.comm_label, ev.ranks)
        (l1, r1), (l2, r2) = list(labels.items())[:2]
        assert r1 != r2
        bad = [
            dataclasses.replace(ev, comm_label=l1) if ev.comm_label == l2 else ev
            for ev in cgyro_events
        ]
        with pytest.raises(ProtocolError) as exc:
            replay_trace(bad)
        assert exc.value.code == "membership"

    def test_unknown_kind_raises(self, cgyro_events):
        ev = cgyro_events[0]
        bad = [dataclasses.replace(ev, kind="gossip")] + cgyro_events[1:]
        with pytest.raises(ProtocolError) as exc:
            replay_trace(bad)
        assert exc.value.code == "unknown-kind"


class TestExportRoundTrip:
    def test_json_round_trip_is_lossless(self, cgyro_events, tmp_path):
        world = VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4))
        world.install_checker(CollectiveChecker())
        CgyroSimulation(
            world, range(world.n_ranks), small_test(nonlinear=True)
        ).step()
        path = tmp_path / "trace.json"
        n = export_trace_json(world.trace, path)
        assert n == len(world.trace.events)
        loaded = load_trace_json(path)
        assert loaded == list(world.trace.events)


class TestCli:
    def _save_trace(self, events, path):
        world = VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=4))
        for ev in events:
            world.trace.record(ev)
        export_trace_json(world.trace, path)

    def test_builtin_demos_pass(self, capsys):
        assert cli_main(["check-trace", "--figure1", "--figure3"]) == 0
        out = capsys.readouterr().out
        assert "figure1: " in out and "figure3: " in out
        assert "replay:" in out

    def test_save_writes_traces(self, tmp_path, capsys):
        code = cli_main(
            ["check-trace", "--figure1", "--save", str(tmp_path), "--no-replay"]
        )
        assert code == 0
        saved = tmp_path / "figure1.trace.json"
        assert saved.exists()
        assert load_trace_json(saved)

    def test_saved_trace_rechecks_clean(self, tmp_path, capsys):
        cli_main(["check-trace", "--figure1", "--save", str(tmp_path),
                  "--no-replay"])
        code = cli_main(["check-trace", str(tmp_path / "figure1.trace.json")])
        assert code == 0

    def test_lint_failure_exits_1(self, cgyro_events, tmp_path, capsys):
        ev = cgyro_events[0]
        bad = [dataclasses.replace(ev, nbytes=-64)]
        path = tmp_path / "bad.json"
        self._save_trace(bad, path)
        assert cli_main(["check-trace", str(path), "--no-replay"]) == 1
        assert "problem" in capsys.readouterr().out

    def test_replay_failure_exits_2(self, cgyro_events, tmp_path, capsys):
        labels = {}
        for ev in cgyro_events:
            labels.setdefault(ev.comm_label, ev.ranks)
        (l1, _), (l2, _) = list(labels.items())[:2]
        bad = [
            dataclasses.replace(ev, comm_label=l1) if ev.comm_label == l2 else ev
            for ev in cgyro_events
        ]
        path = tmp_path / "drift.json"
        self._save_trace(bad, path)
        assert cli_main(["check-trace", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nothing_to_check_exits_2(self, capsys):
        assert cli_main(["check-trace"]) == 2

    def test_a_retired_kind_is_refused_not_crashed_on(self, tmp_path):
        """A trace naming a collective the model no longer issues: the
        lint lists it, the replay refuses it with the checker's own
        diagnosis, and the CLI exits 2 without a traceback."""
        path = tmp_path / "bcast.json"
        path.write_text(
            '{"format": "repro-trace-v1", "events": [{"seq": 1, "kind": "bcast", '
            '"comm_label": "world", "ranks": [0, 1], "n_nodes": 1, "nbytes": 8, '
            '"algorithm": "", "t_start": 0.0, "cost_s": 1e-06, "category": "", '
            '"nonblocking": false}]}'
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "check-trace", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: unknown collective kind 'bcast'")
        assert "Traceback" not in done.stderr
        assert "[unknown-kind] seq 1: unknown collective kind 'bcast'" in done.stdout
