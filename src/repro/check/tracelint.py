"""Static lint and deterministic replay of recorded collective traces.

A saved trace (``repro.vmpi.export.export_trace_json``) is a complete
record of a virtual job's communication.  This module re-derives the
paper's structural claims from that record alone:

- :func:`lint_trace` — generic conformance: monotone sequence numbers,
  known kinds (:data:`~repro.check.checker.KNOWN_KINDS`), ranks that
  exist, sane byte counts, stable communicator membership behind each
  label
  (a label whose rank set changes mid-trace is a *partially
  participating* collective), and per-rank time monotonicity.
- :func:`verify_figure1` — CGYRO's structure: the str-phase AllReduces
  and the str<->coll AllToAll transposes ride the *same* comm_1
  communicators, with paired forward/back transposes.
- :func:`verify_figure3` — XGYRO's structure: str and coll label sets
  are disjoint (the separation the paper introduces), and every
  ensemble-wide coll group is exactly the union of two or more member
  str groups.
- :func:`replay_trace` — feed the trace back through a
  :class:`~repro.check.checker.CollectiveChecker` under blocking
  semantics; an inconsistent trace (mismatch, would-be deadlock)
  raises a diagnosed :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check.checker import KNOWN_KINDS, CollectiveChecker
from repro.vmpi.tracer import CollectiveEvent

#: Per-rank clock tolerance for the time-monotonicity lint (seconds).
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class TraceProblem:
    """One lint finding, anchored to a trace seq number (-1 = global)."""

    seq: int
    code: str
    message: str

    def describe(self) -> str:
        where = f"seq {self.seq}" if self.seq >= 0 else "trace"
        return f"[{self.code}] {where}: {self.message}"


@dataclass(frozen=True)
class TraceLintReport:
    """Outcome of a lint / structural-verification pass."""

    check: str
    n_events: int
    labels: Tuple[str, ...]
    problems: Tuple[TraceProblem, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        head = (
            f"{self.check}: {self.n_events} events, "
            f"{len(self.labels)} communicator label(s)"
        )
        if self.ok:
            return f"{head} — OK"
        lines = [f"{head} — {len(self.problems)} problem(s):"]
        lines.extend(f"  {p.describe()}" for p in self.problems)
        return "\n".join(lines)


def _labels(events: Sequence[CollectiveEvent]) -> Tuple[str, ...]:
    seen: Dict[str, None] = {}
    for ev in events:
        seen.setdefault(ev.comm_label, None)
    return tuple(seen)


def lint_trace(events: Sequence[CollectiveEvent]) -> TraceLintReport:
    """Generic conformance lint over a recorded event sequence."""
    problems: List[TraceProblem] = []
    last_seq: Optional[int] = None
    membership: Dict[str, Tuple[int, ...]] = {}
    last_end: Dict[int, float] = {}
    for ev in events:
        if last_seq is not None and ev.seq <= last_seq:
            problems.append(
                TraceProblem(
                    ev.seq,
                    "seq-order",
                    f"sequence number {ev.seq} follows {last_seq} "
                    f"(must be strictly increasing)",
                )
            )
        last_seq = ev.seq
        if ev.kind not in KNOWN_KINDS:
            problems.append(
                TraceProblem(
                    ev.seq, "unknown-kind", f"unknown collective kind {ev.kind!r}"
                )
            )
        if not ev.ranks:
            problems.append(
                TraceProblem(ev.seq, "ranks", "collective with no participants")
            )
        elif len(set(ev.ranks)) != len(ev.ranks):
            problems.append(
                TraceProblem(
                    ev.seq, "ranks", f"duplicate participants: {list(ev.ranks)}"
                )
            )
        if any(r < 0 for r in ev.ranks):
            problems.append(
                TraceProblem(ev.seq, "ranks", f"negative rank in {list(ev.ranks)}")
            )
        if ev.nbytes < 0:
            problems.append(
                TraceProblem(ev.seq, "nbytes", f"negative byte count {ev.nbytes}")
            )
        if ev.cost_s < 0:
            problems.append(
                TraceProblem(ev.seq, "time", f"negative duration {ev.cost_s}")
            )
        # a label must always denote the same ordered group
        known = membership.get(ev.comm_label)
        if known is None:
            membership[ev.comm_label] = ev.ranks
        elif known != ev.ranks:
            missing = sorted(set(known) - set(ev.ranks))
            extra = sorted(set(ev.ranks) - set(known))
            problems.append(
                TraceProblem(
                    ev.seq,
                    "partial-participation",
                    f"{ev.kind} on {ev.comm_label!r} ran with "
                    f"{list(ev.ranks)} but the label's group is "
                    f"{list(known)} (missing {missing}, extra {extra})",
                )
            )
        for r in ev.ranks:
            prev = last_end.get(r)
            if prev is not None and ev.t_start < prev - _TIME_EPS:
                problems.append(
                    TraceProblem(
                        ev.seq,
                        "overlap",
                        f"{ev.kind} on {ev.comm_label!r} starts at "
                        f"t={ev.t_start:.9f} while rank {r} is busy until "
                        f"t={prev:.9f}",
                    )
                )
            last_end[r] = ev.t_start + ev.cost_s
    return TraceLintReport(
        check="lint",
        n_events=len(events),
        labels=_labels(events),
        problems=tuple(problems),
    )


def _phases(
    events: Sequence[CollectiveEvent],
) -> Tuple[List[CollectiveEvent], List[CollectiveEvent]]:
    """(str-phase AllReduces, coll-phase AllToAlls) of a trace."""
    ar = [e for e in events if e.kind == "allreduce" and e.category == "str_comm"]
    a2a = [e for e in events if e.kind == "alltoall" and e.category == "coll_comm"]
    return ar, a2a


def verify_figure1(events: Sequence[CollectiveEvent]) -> TraceLintReport:
    """Re-verify CGYRO's Figure-1 structure from a recorded trace.

    One communicator family (comm_1, the nv split within a toroidal
    group) must carry BOTH the str-phase AllReduces and the str<->coll
    AllToAll transposes — the *reuse* XGYRO later has to break.
    """
    problems: List[TraceProblem] = []
    ar, a2a = _phases(events)
    if not ar:
        problems.append(
            TraceProblem(-1, "figure1", "no str-phase allreduces in trace")
        )
    if not a2a:
        problems.append(
            TraceProblem(-1, "figure1", "no coll-phase alltoalls in trace")
        )
    if ar and a2a:
        ar_labels = {e.comm_label for e in ar}
        a2a_labels = {e.comm_label for e in a2a}
        if ar_labels != a2a_labels:
            only_str = sorted(ar_labels - a2a_labels)
            only_coll = sorted(a2a_labels - ar_labels)
            problems.append(
                TraceProblem(
                    -1,
                    "figure1",
                    "str and coll phases must reuse the SAME communicators; "
                    f"str-only labels {only_str}, coll-only labels {only_coll}",
                )
            )
        sizes = {e.size for e in ar} | {e.size for e in a2a}
        if len(sizes) != 1:
            problems.append(
                TraceProblem(
                    -1,
                    "figure1",
                    f"comm_1 groups differ in size: {sorted(sizes)}",
                )
            )
        for ev in a2a:
            if list(ev.ranks) != list(
                range(ev.ranks[0], ev.ranks[0] + ev.size)
            ):
                problems.append(
                    TraceProblem(
                        ev.seq,
                        "figure1",
                        f"comm_1 group is not a consecutive rank block: "
                        f"{list(ev.ranks)}",
                    )
                )
        counts: Dict[str, int] = {}
        for ev in a2a:
            counts[ev.comm_label] = counts.get(ev.comm_label, 0) + 1
        for label, n in sorted(counts.items()):
            if n % 2 != 0:
                problems.append(
                    TraceProblem(
                        -1,
                        "figure1",
                        f"unpaired transpose on {label!r}: {n} alltoalls "
                        f"(forward/back must pair up)",
                    )
                )
    return TraceLintReport(
        check="figure1",
        n_events=len(events),
        labels=_labels(events),
        problems=tuple(problems),
    )


def verify_figure3(events: Sequence[CollectiveEvent]) -> TraceLintReport:
    """Re-verify XGYRO's Figure-3 structure from a recorded trace.

    The str and coll phases must run on *disjoint* communicator label
    sets (the separation), and each ensemble-wide coll group must be
    exactly the union of two or more per-member str groups — the
    shared-cmat exchange spans every member, the member physics stays
    inside its own block.
    """
    problems: List[TraceProblem] = []
    ar, a2a = _phases(events)
    if not ar:
        problems.append(
            TraceProblem(-1, "figure3", "no str-phase allreduces in trace")
        )
    if not a2a:
        problems.append(
            TraceProblem(-1, "figure3", "no coll-phase alltoalls in trace")
        )
    if ar and a2a:
        ar_labels = {e.comm_label for e in ar}
        a2a_labels = {e.comm_label for e in a2a}
        shared = sorted(ar_labels & a2a_labels)
        if shared:
            problems.append(
                TraceProblem(
                    -1,
                    "figure3",
                    f"str/coll separation violated: labels {shared} carry "
                    f"both phases",
                )
            )
        str_groups: Set[FrozenSet[int]] = {frozenset(e.ranks) for e in ar}
        seen_coll: Set[Tuple[str, Tuple[int, ...]]] = set()
        for ev in a2a:
            key = (ev.comm_label, ev.ranks)
            if key in seen_coll:
                continue
            seen_coll.add(key)
            coll_set = set(ev.ranks)
            contained = [g for g in str_groups if g <= coll_set]
            if len(contained) < 2:
                problems.append(
                    TraceProblem(
                        ev.seq,
                        "figure3",
                        f"coll group {ev.comm_label!r} contains "
                        f"{len(contained)} member str group(s); an "
                        f"ensemble-wide exchange must span >= 2 members",
                    )
                )
            else:
                union: Set[int] = set()
                for g in contained:
                    union |= g
                if union != coll_set:
                    orphan = sorted(coll_set - union)
                    problems.append(
                        TraceProblem(
                            ev.seq,
                            "figure3",
                            f"coll group {ev.comm_label!r} is not a union of "
                            f"member str groups (ranks {orphan} belong to no "
                            f"member)",
                        )
                    )
    return TraceLintReport(
        check="figure3",
        n_events=len(events),
        labels=_labels(events),
        problems=tuple(problems),
    )


def replay_trace(events: Sequence[CollectiveEvent]) -> CollectiveChecker:
    """Deterministically re-execute a trace under blocking semantics.

    Each event becomes one program step for each of its participants
    (in trace order per rank); the programs are then simulated with
    :meth:`~repro.check.checker.CollectiveChecker.run_programs`.  A
    trace a real blocking MPI job could not have executed — an unknown
    kind, mismatched kinds behind a label, a wait-for cycle — raises a
    diagnosed :class:`~repro.errors.ProtocolError`.  Returns the checker
    for inspection (``n_completed``, ``completed``).
    """
    ck = CollectiveChecker()
    programs: Dict[int, List[Dict[str, object]]] = {}
    for ev in sorted(events, key=lambda e: e.seq):
        spec = {
            "comm_label": ev.comm_label,
            "comm_ranks": ev.ranks,
            "kind": ev.kind,
            "nbytes": ev.nbytes,
            "site": ev.seq,
        }
        for r in ev.ranks:
            programs.setdefault(int(r), []).append(spec)
    ck.run_programs(programs)
    return ck
