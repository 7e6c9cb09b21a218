"""The WAL as a contract: golden bytes, gates seen red, loaders that
refuse garbage.

``test_service_journal.py`` checks that the journal is *sufficient*
(crash anywhere, recover to the same dispositions).  This file pins
what a control-plane refactor must not move and proves the net under
it can fail:

- **golden WAL** — the four smoke chaos schedules must reproduce the
  digests committed in ``tests/goldens/service_wal.json`` (WAL bytes,
  report bytes, and recovered-run reports at sampled crash indices);
- **one fold** — the service's live state *is* the state its WAL
  replays to: equal to ``ServiceJournal.replay`` of the events at the
  end of every built-in schedule, at every snapshot on the way, and to
  the bit in the pool integral; a handler that writes a book behind
  the fold's back is caught by that comparison; a journal changes
  nothing about the report;
- **negative controls** — a journal with a dispatch deleted or
  duplicated, a completion deleted, or a flush swapped behind the
  dispatch that consumes it is *caught*, by ``ServiceJournal.replay``
  raising or by the same books comparison ``run_scenario``'s
  ``wal-replay`` check makes;
- **loader fuzz** — a truncated, key-dropped or byte-flipped WAL line
  loads or raises :class:`~repro.errors.ServiceError`, never anything
  else.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import builtin_scenarios
from repro.check.invariants import replay_matches_report
from repro.errors import ServiceError
from repro.service import OnlineService, ReplayState, ServiceJournal

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
SCENARIOS = {sc.name: sc for sc in builtin_scenarios(smoke=True)}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_wal(name, golden_generator):
    """A fresh journaled run of each smoke chaos schedule, and its
    crash-and-recover runs, reproduce the committed digests exactly."""
    path = GOLDEN_DIR / golden_generator.SERVICE_WAL_GOLDEN
    golden = json.loads(path.read_text())
    assert sorted(golden) == sorted(SCENARIOS)
    assert golden_generator.service_wal_case(SCENARIOS[name]) == golden[name]


ALL_SCENARIOS = {
    **{f"smoke-{name}": sc for name, sc in SCENARIOS.items()},
    **{f"full-{sc.name}": sc for sc in builtin_scenarios(smoke=False)},
}


def _journaled_run(scenario, **journal_kwargs):
    journal = ServiceJournal(**journal_kwargs)
    service = scenario.build(journal=journal)
    return service, journal, service.run(scenario.horizon_s)


class TestLiveStateIsTheReplayedState:
    @pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
    def test_state_equals_replay_at_the_end_and_at_every_snapshot(self, name):
        service, journal, _ = _journaled_run(
            ALL_SCENARIOS[name], snapshot_interval=1
        )
        events = journal.events
        assert service.state.to_dict() == ServiceJournal.replay(
            [e for e in events if e[0] != "snapshot"]
        ).to_dict()
        # every snapshot — the live state, dumped mid-run — is the
        # replay of the events before it
        fold, n_snapshots = ReplayState(), 0
        for kind, payload in events:
            if kind == "snapshot":
                assert payload["state"] == fold.to_dict()
                n_snapshots += 1
            else:
                fold.apply(kind, payload)
        assert n_snapshots == len(events) // 2

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_one_pool_integrator(self, name):
        """The report's pool node-seconds are the fold's, to the bit
        (two integrators disagreed by one ulp on ``crash-resume``), and
        attaching a journal changes nothing about the report."""
        scenario = SCENARIOS[name]
        _, journal, report = _journaled_run(scenario)
        replayed = ServiceJournal.replay(journal.events)
        assert replayed.pool["node_seconds"] == report.pool_node_seconds
        assert replay_matches_report(replayed, report)
        unjournaled = scenario.build().run(scenario.horizon_s)
        assert unjournaled.to_dict() == report.to_dict()

    def test_a_book_written_behind_the_fold_is_caught(self, monkeypatch):
        """Negative control: a handler that bumps a book itself instead
        of journaling the event leaves a live state no replay reaches."""
        honest = OnlineService._on_arrival

        def rogue(self, req):
            honest(self, req)
            self.state.offered += 1

        monkeypatch.setattr(OnlineService, "_on_arrival", rogue)
        service, journal, _ = _journaled_run(SCENARIOS["crash-resume"])
        replayed = ServiceJournal.replay(journal.events)
        assert service.state.offered > replayed.offered
        assert service.state.to_dict() != replayed.to_dict()


@pytest.fixture(scope="module")
def journaled():
    """The kitchen-sink smoke run, journaled without snapshots (a
    snapshot would fast-forward replay past a tampered prefix):
    (events, report)."""
    scenario = SCENARIOS["kitchen-sink"]
    journal = ServiceJournal()
    report = scenario.build(journal=journal).run(scenario.horizon_s)
    return journal.events, report


def _caught(events, report) -> bool:
    """True iff tampering with ``events`` is detected: replay refuses
    the journal, or the replayed books disagree with the report."""
    try:
        shadow = ServiceJournal.replay(events)
    except ServiceError:
        return True
    return not replay_matches_report(shadow, report)


def _indices(events, kind):
    return [i for i, (k, _) in enumerate(events) if k == kind]


class TestWalGatesGoRed:
    def test_untampered_journal_passes(self, journaled):
        events, report = journaled
        assert not _caught(events, report)

    def test_deleted_dispatch_is_caught(self, journaled):
        events, report = journaled
        for i in _indices(events, "dispatch"):
            assert _caught(events[:i] + events[i + 1:], report), i

    def test_duplicated_dispatch_is_caught(self, journaled):
        events, report = journaled
        for i in _indices(events, "dispatch"):
            assert _caught(events[: i + 1] + events[i:], report), i

    def test_deleted_completion_is_caught(self, journaled):
        events, report = journaled
        serving = [
            i for i in _indices(events, "complete") if events[i][1]["served"]
        ]
        assert serving
        for i in serving:
            assert _caught(events[:i] + events[i + 1:], report), i

    def test_flush_swapped_behind_its_dispatch_is_caught(self, journaled):
        events, report = journaled
        flush_at = {events[i][1]["seq"]: i for i in _indices(events, "flush")}
        for j in _indices(events, "dispatch"):
            i = flush_at[events[j][1]["ready_seq"]]
            swapped = list(events)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert _caught(swapped, report), (i, j)


class TestLoadersRefuseGarbage:
    def test_torn_line_names_its_line(self, journaled):
        events, _ = journaled
        lines = [
            json.dumps({"kind": k, "payload": p}, sort_keys=True)
            for k, p in events[:5]
        ]
        lines[3] = lines[3][: len(lines[3]) // 2]
        with pytest.raises(ServiceError, match="line 4"):
            ServiceJournal.from_jsonl("\n".join(lines))

    @pytest.mark.parametrize(
        "line,match",
        [
            ('{"kind": "end"}', "line 1.*'payload'"),
            ('{"kind": "end", "payload": {}}', "line 1.*'t'"),
            ('{"kind": "end", "payload": {"t": 0.0}, "x": 1}', "line 1.*'x'"),
            ("[1, 2]", "line 1.*object"),
            ('{"kind": "bogus", "payload": {"t": 0.0}}', "bogus"),
        ],
    )
    def test_malformed_record_is_a_service_error(self, line, match):
        with pytest.raises(ServiceError, match=match):
            ServiceJournal.from_jsonl(line)

    def test_from_file_refuses_garbage(self, tmp_path):
        path = tmp_path / "torn.wal"
        path.write_text('{"kind": "begin", "payl')
        with pytest.raises(ServiceError, match="line 1"):
            ServiceJournal.from_file(path)

    def test_state_dict_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ServiceError, match="'bogus'"):
            ReplayState.from_dict({"bogus": 1})
        good = ReplayState().to_dict()
        del good["window"]
        with pytest.raises(ServiceError, match="'window'"):
            ReplayState.from_dict(good)

    def test_apply_names_the_missing_key(self):
        with pytest.raises(ServiceError, match="flush.*'request_ids'"):
            ReplayState().apply("flush", {"t": 0.0, "seq": 1})

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_damaged_line_loads_or_raises_service_error(
        self, journaled, data
    ):
        """Truncate, drop a key from, or flip one character of one
        line of a real WAL: the loader answers with a journal or a
        ``ServiceError`` — never a traceback of another type."""
        events, _ = journaled
        lines = [
            json.dumps({"kind": k, "payload": p}, sort_keys=True)
            for k, p in events
        ]
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        line = lines[i]
        damage = data.draw(
            st.sampled_from(("truncate", "drop-key", "flip")), label="damage"
        )
        if damage == "truncate":
            lines[i] = line[: data.draw(st.integers(0, len(line) - 1))]
        elif damage == "flip":
            at = data.draw(st.integers(0, len(line) - 1))
            char = data.draw(
                st.characters(min_codepoint=32, max_codepoint=126)
            )
            lines[i] = line[:at] + char + line[at + 1:]
        else:
            obj = json.loads(line)
            # walk a random path of dict keys and drop the last one
            node = obj
            while True:
                key = data.draw(st.sampled_from(sorted(node)))
                child = node[key]
                if isinstance(child, dict) and child and data.draw(
                    st.booleans()
                ):
                    node = child
                    continue
                del node[key]
                break
            lines[i] = json.dumps(obj, sort_keys=True)
        try:
            ServiceJournal.from_jsonl("\n".join(lines))
        except ServiceError:
            pass
