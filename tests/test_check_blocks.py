"""The checker takes a lockstep statement as one block.

``CollectiveChecker.lockstep_collective`` admits a clean blocking
collective whole, and ``lockstep_rows`` admits and overlap-checks a
clean block of rows whole; either builds its posts only when
``completed`` is read.  These tests hold that entry to ``==`` against
the row-by-row engine it replaced — every collective posted rank by rank
through ``post()``, every row admitted, then ``observe_collective``-ed —
on each violation a lockstep statement can meet (the diagnosis and every
book the world keeps), and count the posts a clean service horizon
builds.
"""

from __future__ import annotations

import collections
from typing import Callable, Dict

import numpy as np
import pytest

from repro.check import CollectiveChecker, builtin_scenarios
from repro.check import checker as checker_module
from repro.check.checker import CollectivePost
from repro.errors import ProtocolError
from repro.machine import generic_cluster
from repro.obs import Telemetry
from repro.vmpi import Communicator, VirtualWorld, allreduce_rounds

_MACHINE = generic_cluster(n_nodes=4, ranks_per_node=4)


def _row_by_row(world: VirtualWorld) -> None:
    """Route ``world``'s checker through the per-post engine."""
    ck = world.checker

    def lockstep_collective(kind, ranks, label, sizes, *, op="", dtypes=None):
        for k, r in enumerate(ranks):
            ck.post(
                r, comm_label=label, comm_ranks=ranks, kind=kind, nbytes=int(sizes[k]),
                op=op, dtype="" if dtypes is None else dtypes[k], site=ck.observed_events,
            )

    def record_rows(rows, admit, clean):
        seq0, n = world._seq, len(rows.t_starts) * len(rows.groups)
        traced = booked = 0
        try:
            for g, t_start, _ in rows.cells(n):
                ranks = rows.groups[g]
                if admit is not None:
                    lockstep_collective(
                        rows.kind, ranks, rows.labels[g], (rows.nbytes[g],) * len(ranks),
                        op=admit[0], dtypes=(admit[1],) * len(ranks),
                    )
                traced += 1
                ck.observe_collective(
                    seq0 + traced, rows.kind, rows.labels[g], ranks, t_start,
                    rows.costs[g], rows.overlapped_s is not None,
                )
                booked += 1
        finally:
            world._seq += traced
            world.trace.record_rows(rows, seq0, traced)
            world.tracer.record_rows(rows, booked)
            world._fold_series(rows, booked)

    ck.lockstep_collective = lockstep_collective
    ck.lockstep_rows = lambda rows, admit=None: False  # never whole
    world._record_rows = record_rows


def _world(reference: bool) -> VirtualWorld:
    world = VirtualWorld(_MACHINE)
    Telemetry().install(world)
    world.install_checker(CollectiveChecker())
    if reference:
        _row_by_row(world)
    world.charge_compute(range(16), seconds={r: 1e-4 * (r % 5) for r in range(16)})
    return world


def _statement(world, groups, labels, rounds=3, dtype=np.float64):
    """One field-solve-shaped block on ``groups``."""
    comms = [Communicator(world, ranks, label=label) for ranks, label in zip(groups, labels)]
    stack = np.ones((len(groups[0]), rounds, 2, 2 * len(groups)), dtype=dtype)
    columns = [slice(2 * g, 2 * g + 2) for g in range(len(groups))]
    return allreduce_rounds(comms, stack, columns)


def _legal(world):
    """What both engines run clean before the violation: a block, a
    single allreduce and an alltoall, so that seqs and sites run on."""
    _statement(world, [(0, 1), (2, 3)], ["s0", "s1"])
    Communicator(world, (4, 5, 6), label="one").allreduce(
        {r: np.ones(3) for r in (4, 5, 6)}
    )
    Communicator(world, (7, 8), label="t").alltoall(
        {r: [np.ones(2 + r), np.ones(1)] for r in (7, 8)}
    )


def _relabelled(world):
    # "s1" was adopted as (2, 3)
    _statement(world, [(10, 11), (12, 13)], ["x", "s1"])


def _unwaited(world):
    Communicator(world, (12, 15), label="nb").iallreduce({12: np.ones(2), 15: np.ones(2)})
    _statement(world, [(10, 11), (12, 13)], ["x", "y"])


def _planted(world):
    world.checker._last_t[13] = 1e9
    _statement(world, [(10, 11), (12, 13)], ["x", "y"])


def _mixed_dtypes(world):
    # equal byte counts: only the dtype check can refuse it
    Communicator(world, (10, 11), label="m").allreduce(
        {10: np.ones(2, dtype=np.complex64), 11: np.ones(2)}
    )


def _unknown_kind(world):
    world.checker.lockstep_collective("bcast", (10, 11), "u", (8, 8))


VIOLATIONS: Dict[str, Callable] = {
    "membership": _relabelled,
    "inflight-overlap": _unwaited,
    "overlap": _planted,
    "mismatch": _mixed_dtypes,
    "unknown-kind": _unknown_kind,
}


def _books(world) -> dict:
    ck = world.checker
    return {
        "trace": [repr(event) for event in world.trace],
        "spans": [repr(span) for span in world.tracer.spans],
        "series": world.metrics.to_dict(),
        "clock": world.clock.tobytes(),
        "seq": world._seq,
        "checker": (ck._seq, ck.observed_events, dict(ck._membership), repr(ck.completed)),
        "last_end": dict(ck._last_t),
    }


def _run(violation, reference: bool):
    world = _world(reference)
    _legal(world)
    with pytest.raises(ProtocolError) as caught:
        violation(world)
    err = caught.value
    return (err.code, str(err), err.seqs, err.ranks, err.comm_labels), _books(world)


@pytest.mark.parametrize("code", sorted(VIOLATIONS))
def test_a_violation_is_diagnosed_and_booked_as_row_by_row(code):
    block = _run(VIOLATIONS[code], reference=False)
    assert block == _run(VIOLATIONS[code], reference=True)
    assert block[0][0] == code


def test_a_clean_run_books_as_row_by_row():
    outcomes = []
    for reference in (False, True):
        world = _world(reference)
        _legal(world)
        _statement(world, [(10, 11), (12, 13)], ["x", "y"], dtype=np.complex128)
        labels = dict.fromkeys((p[0].comm_label, p[0].kind) for p in world.checker.completed)
        outcomes.append((world.checker.n_completed, list(labels), _books(world)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 6 + 1 + 1 + 6
    assert outcomes[0][1] == [
        ("s0", "allreduce"), ("s1", "allreduce"), ("one", "allreduce"),
        ("t", "alltoall"), ("x", "allreduce"), ("y", "allreduce"),
    ]


# -- laziness ------------------------------------------------------------
@pytest.fixture
def posts_built(monkeypatch):
    """The number of ``CollectivePost`` objects constructed so far."""
    built = collections.Counter()
    original = CollectivePost.__init__

    def counting(self, *args, **kwargs):
        built["posts"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(CollectivePost, "__init__", counting)
    return built


def test_a_clean_horizon_builds_no_post_until_read(monkeypatch, posts_built):
    made = []

    class Kept(CollectiveChecker):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(checker_module, "CollectiveChecker", Kept)
    (sink,) = (s for s in builtin_scenarios(smoke=True) if s.name == "kitchen-sink")
    sink.build().run(sink.horizon_s)
    assert made and posts_built["posts"] == 0
    n = sum(ck.n_completed for ck in made)
    assert n > 0 and posts_built["posts"] == 0
    # a read builds every post once, and the count does not move
    per_row = sum(len(posts) for ck in made for posts in ck.completed)
    assert sum(map(len, (ck.completed for ck in made))) == n
    assert posts_built["posts"] == per_row
    assert sum(ck.n_completed for ck in made) == n


def test_alltoall_diagnoses_cite_the_next_seq_after_a_block():
    """The resubmit and the duplicate diagnosis both name the seq the
    refused alltoall would have taken — exact after a lazy block."""
    world = VirtualWorld(_MACHINE)
    world.install_checker(CollectiveChecker())
    comm = Communicator(world, (0, 1, 2, 3), label="w")
    sent = {r: [np.full(2, float(r)) for _ in range(4)] for r in comm.ranks}
    comm.alltoall(sent)  # seqs 1..4
    _statement(world, [(4, 5), (6, 7)], ["a", "b"])  # 3 rounds x 2 groups x 2: 5..16
    assert world.checker._seq == 16
    with pytest.raises(ProtocolError) as caught:
        comm.alltoall(sent)
    assert caught.value.code == "moved-block" and caught.value.seqs == (1, 17)
    shared = np.ones(2)
    with pytest.raises(ProtocolError) as caught:
        comm.alltoall({r: [shared] * 4 for r in comm.ranks})
    assert caught.value.code == "moved-block" and caught.value.seqs == (17,)
