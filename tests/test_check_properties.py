"""Property tests: the checker accepts every valid schedule and
rejects every singly-mutated one.

The generator builds random-but-legal lockstep schedules over the two
collectives the model issues: each round partitions the ranks into
disjoint groups, and each group runs one blocking or nonblocking
``allreduce`` / ``alltoall`` with a consistent op, dtype and byte count.
Such a schedule must always drive
:meth:`CollectiveChecker.run_programs` to completion.  Each entry of
:data:`MUTATIONS`, applied to the last member of one group, must raise a
:class:`ProtocolError` carrying one of its codes and naming the
offending sequence numbers — and every code the checker can raise is
produced by at least one mutation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, FrozenSet, Optional

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from repro.check import CollectiveChecker
from repro.errors import ProtocolError
from repro.machine import single_node
from repro.vmpi import Communicator, VirtualWorld

CHECKER_SOURCE = Path(__file__).resolve().parent.parent / "src/repro/check/checker.py"

_KINDS = ("allreduce", "alltoall")


@st.composite
def _schedules(draw):
    """(n_ranks, rounds): each round a list of (group spec, nonblocking)."""
    n_ranks = draw(st.integers(min_value=4, max_value=8))
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        ranks = list(range(n_ranks))
        groups = []
        while len(ranks) >= 2:
            size = draw(st.integers(min_value=2, max_value=len(ranks)))
            members, ranks = tuple(ranks[:size]), ranks[size:]
            kind = draw(st.sampled_from(_KINDS))
            spec = {
                "comm_ranks": members,
                "kind": kind,
                "nbytes": 8 * draw(st.integers(min_value=1, max_value=64)),
            }
            if kind == "allreduce":
                spec["op"] = "SUM"
                spec["dtype"] = draw(st.sampled_from(("float64", "complex128")))
            groups.append((spec, draw(st.booleans())))
        rounds.append(groups)
    return n_ranks, rounds


def _label(i: int, g: int) -> str:
    return f"r{i}.g{g}"


def _run(n_ranks, rounds, target=None, edit=None) -> CollectiveChecker:
    """Run the schedule's per-rank programs under blocking semantics; a
    nonblocking group is a post and its wait.  ``edit`` rewrites the
    ops of the ``target`` (round, group, rank) before the run."""
    programs = {r: [] for r in range(n_ranks)}
    for i, groups in enumerate(rounds):
        for g, (spec, nonblocking) in enumerate(groups):
            post = dict(spec, comm_label=_label(i, g))
            for r in spec["comm_ranks"]:
                ops = [dict(post, mode="post"), {"mode": "wait"}] if nonblocking else [dict(post)]
                if (i, g, r) == target:
                    ops = edit(ops)
                programs[r].extend(ops)
    ck = CollectiveChecker()
    ck.run_programs(programs)
    return ck


# ----------------------------------------------------------------------
# the mutations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mutation:
    """One wrong thing the victim does; ``applies`` picks the group."""

    codes: FrozenSet[str]
    applies: Callable[[dict, bool], bool] = lambda spec, nonblocking: True
    #: rewrite of the victim's ops of its group, run through ``_run``
    edit: Optional[Callable[[list], list]] = None
    #: or a driver of its own: (n_ranks, rounds, round, group) -> None
    drive: Optional[Callable[..., None]] = None


def _set(key, value):
    def edit(ops):
        ops[0][key] = value(ops[0]) if callable(value) else value
        return ops

    return edit


def _reenter(n_ranks, rounds, i, g):
    """After the valid schedule, the victim enters its group's
    collective and, still blocked, enters it again."""
    ck = _run(n_ranks, rounds)
    spec = rounds[i][g][0]
    post = dict(spec, comm_label=_label(i, g))
    ck.post(spec["comm_ranks"][-1], **post)
    ck.post(spec["comm_ranks"][-1], **post)


def _replayed(n_ranks, rounds, i, g):
    """A blocking collective's trace row observed twice: both copies
    start at the same time on the same ranks."""
    ck = _run(n_ranks, rounds)
    spec = rounds[i][g][0]
    for seq in (1, 2):
        ck.observe_collective(
            seq, spec["kind"], _label(i, g), spec["comm_ranks"], 0.0, 1e-6, False
        )


def _resend(n_ranks, rounds, i, g):
    """The group's alltoall run on a checked world, then the same
    blocks submitted again: they were moved by the first call."""
    world = VirtualWorld(single_node(ranks=n_ranks))
    world.install_checker(CollectiveChecker())
    comm = Communicator(world, rounds[i][g][0]["comm_ranks"], label=_label(i, g))
    send = {r: [np.full(2, float(r)) for _ in comm.ranks] for r in comm.ranks}
    comm.alltoall(send)
    comm.alltoall(send)


def _nonblocking(spec, nonblocking):
    return nonblocking


MUTATIONS = {
    "kind": Mutation(
        frozenset({"mismatch"}),
        edit=_set("kind", lambda post: "alltoall" if post["kind"] == "allreduce" else "allreduce"),
    ),
    "op": Mutation(frozenset({"mismatch"}), edit=_set("op", "MAX")),
    "dtype": Mutation(frozenset({"mismatch"}), edit=_set("dtype", "float32")),
    "nbytes": Mutation(
        frozenset({"mismatch"}),
        applies=lambda spec, nonblocking: spec["kind"] == "allreduce",  # alltoall(v) may be ragged
        edit=_set("nbytes", lambda post: post["nbytes"] + 8),
    ),
    "drop": Mutation(frozenset({"deadlock"}), edit=lambda ops: []),
    "unknown-kind": Mutation(frozenset({"unknown-kind"}), edit=_set("kind", "bcast")),
    "stranger": Mutation(
        frozenset({"membership"}),
        edit=_set("comm_ranks", lambda post: post["comm_ranks"][:-1]),
    ),
    "no-wait": Mutation(
        frozenset({"inflight-overlap", "never-waited"}),
        applies=_nonblocking,
        edit=lambda ops: ops[:1],
    ),
    "double-wait": Mutation(
        frozenset({"double-wait"}),
        applies=_nonblocking,
        edit=lambda ops: ops + [{"mode": "wait"}],
    ),
    # a wait before the group's post: stray when the victim never posted
    # anything before, a second wait on its last request otherwise
    "early-wait": Mutation(
        frozenset({"stray-wait", "double-wait"}), edit=lambda ops: [{"mode": "wait"}] + ops
    ),
    "reenter": Mutation(frozenset({"mid-flight"}), drive=_reenter),
    "replayed": Mutation(
        frozenset({"overlap"}),
        applies=lambda spec, nonblocking: not nonblocking,
        drive=_replayed,
    ),
    "resend": Mutation(
        frozenset({"moved-block"}),
        applies=lambda spec, nonblocking: spec["kind"] == "alltoall",
        drive=_resend,
    ),
}


def _diagnose(sched, name) -> Optional[ProtocolError]:
    """The error ``MUTATIONS[name]`` provokes on the first group it
    applies to (the victim is that group's last member); None when no
    group of the schedule qualifies."""
    n_ranks, rounds = sched
    mutation = MUTATIONS[name]
    target = next(
        (
            (i, g)
            for i, groups in enumerate(rounds)
            for g, (spec, nonblocking) in enumerate(groups)
            if mutation.applies(spec, nonblocking)
        ),
        None,
    )
    if target is None:
        return None
    i, g = target
    with pytest.raises(ProtocolError) as caught:
        if mutation.drive is not None:
            mutation.drive(n_ranks, rounds, i, g)
        else:
            victim = rounds[i][g][0]["comm_ranks"][-1]
            _run(n_ranks, rounds, (i, g, victim), mutation.edit)
    return caught.value


# ----------------------------------------------------------------------
@settings(deadline=None, max_examples=50)
@given(_schedules())
def test_valid_schedules_never_raise(sched):
    n_ranks, rounds = sched
    ck = _run(n_ranks, rounds)
    assert ck.n_completed == sum(len(groups) for groups in rounds)
    ck.assert_quiescent()


@settings(deadline=None, max_examples=80)
@given(_schedules(), st.sampled_from(sorted(MUTATIONS)))
def test_single_mutation_always_diagnosed(sched, name):
    err = _diagnose(sched, name)
    assume(err is not None)
    assert err.code in MUTATIONS[name].codes, (name, err.code, str(err))
    if err.code != "stray-wait":  # a wait with no post has no post seq
        assert err.seqs, "diagnosis must name the offending post seq numbers"


def _spec(ranks, kind, nbytes=16):
    spec = {"comm_ranks": ranks, "kind": kind, "nbytes": nbytes}
    if kind == "allreduce":
        spec.update(op="SUM", dtype="float64")
    return spec


#: two fixed schedules: a nonblocking group with a blocking collective
#: after it, and one whose nonblocking group is the last thing it does
_FIXED = [
    (
        4,
        [
            [(_spec((0, 1), "allreduce"), True), (_spec((2, 3), "alltoall"), False)],
            [(_spec((0, 1, 2, 3), "allreduce"), False)],
        ],
    ),
    (4, [[(_spec((0, 1, 2, 3), "alltoall", 32), True)]]),
]


def test_every_code_the_checker_raises_is_reached_by_a_mutation():
    """A new ``code=`` in the checker needs a mutation that reaches it."""
    raised = {}
    for sched in _FIXED:
        for name in sorted(MUTATIONS):
            err = _diagnose(sched, name)
            if err is not None:
                assert err.code in MUTATIONS[name].codes, (name, err.code)
                raised.setdefault(err.code, name)
    codes = set(re.findall(r'code="([a-z-]+)"', CHECKER_SOURCE.read_text()))
    assert len(codes) == 11
    assert set(raised) == codes, sorted(codes - set(raised))
