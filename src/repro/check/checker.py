"""Runtime conformance checking of collective protocols.

:class:`CollectiveChecker` models the rules a real MPI job must obey
and that lockstep execution silently bypasses:

- every collective is one of :data:`KNOWN_KINDS`, the two the model
  issues;
- every member of a communicator must take part in each of its
  collectives, with matched kind / reduce-op / dtype;
- an AllReduce's byte counts must agree; an AllToAll(v)'s may differ
  per rank;
- a communicator label must always denote the same ordered rank group
  (label aliasing corrupts trace analysis and cost attribution);
- a rank blocked in one collective may not post another — posting
  while mid-flight on an *overlapping* communicator is exactly the
  str-comm/coll-comm ordering bug unbalanced ensemble decompositions
  invite;
- a block handed to ``alltoall`` is *moved* (see
  :mod:`repro.vmpi.communicator`): the sender may not submit it again.

Two driving modes share one engine:

- **Lockstep** (installed via ``world.install_checker``): every
  executed collective posts all of its participants at once and must
  complete inline; violations raise
  :class:`~repro.errors.ProtocolError` at the call site.
- **Schedule** (:meth:`CollectiveChecker.run_programs`): explicit
  per-rank program orders are simulated under blocking semantics, so
  mismatched orderings between overlapping communicators surface as a
  *diagnosed deadlock* — the wait-for graph printed with ranks, comms
  and sequence numbers — instead of a hang.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, NamedTuple, Optional
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vmpi.communicator import Communicator
    from repro.vmpi.tracer import CollectiveRows

#: Every kind the virtual MPI substrate executes: the str-phase
#: AllReduce and the str<->coll AllToAll.  The cost model, the trace
#: lint and replay and the traffic matrix refuse any other kind.
KNOWN_KINDS = frozenset({"allreduce", "alltoall"})


@dataclass(frozen=True)
class CollectivePost:
    """One rank's entry into a collective, as seen by the checker.

    ``seq`` is the checker's own monotone post counter — the number a
    diagnosis refers to.  ``site`` is the caller's identifier for the
    program point (per-rank program counter in schedule mode, world
    trace seq in lockstep mode; -1 when unknown).
    """

    seq: int
    rank: int
    comm_label: str
    comm_ranks: Tuple[int, ...]
    kind: str
    nbytes: int
    op: str = ""
    dtype: str = ""
    site: int = -1

    def describe(self) -> str:
        """Compact one-line rendering for diagnostics."""
        extra = f", op={self.op}" if self.op else ""
        return (
            f"seq {self.seq}: rank {self.rank} {self.kind} on "
            f"{self.comm_label!r} ({self.nbytes} B{extra})"
        )


class _Admitted(NamedTuple):
    """A clean lockstep statement admitted whole: ``rounds`` rounds on
    each of ``groups`` (ranks sending ``sizes[g]``), built on the first
    read post by post, numbered on from ``seq`` and sited from ``site``."""

    kind: str
    op: str
    dtype: str
    groups: Sequence[Tuple[int, ...]]
    labels: Sequence[str]
    sizes: Sequence[Tuple[int, ...]]
    rounds: int
    seq: int
    site: int

    def posts(self) -> Iterator[Tuple[CollectivePost, ...]]:
        seq, site, kind, op, dtype = self.seq, self.site, self.kind, self.op, self.dtype
        for _ in range(self.rounds):
            for ranks, label, sizes in zip(self.groups, self.labels, self.sizes):
                yield tuple(
                    CollectivePost(seq + k + 1, r, label, ranks, kind, nb, op, dtype, site)
                    for k, (r, nb) in enumerate(zip(ranks, sizes))
                )
                seq, site = seq + len(ranks), site + 1


class _InFlight:
    """A collective some ranks have entered but not all."""

    __slots__ = ("comm_label", "comm_ranks", "kind", "posts")

    def __init__(self, comm_label: str, comm_ranks: Tuple[int, ...], kind: str):
        self.comm_label = comm_label
        self.comm_ranks = comm_ranks
        self.kind = kind
        self.posts: Dict[int, CollectivePost] = {}

    @property
    def missing(self) -> Tuple[int, ...]:
        return tuple(r for r in self.comm_ranks if r not in self.posts)


class _PendingGroup:
    """A nonblocking collective between post and wait.

    Created when the first rank posts; ``complete`` flips once every
    member has posted (and the cross-rank validation passed).  Each
    rank then retires its side individually via a wait.  Retired
    groups are retained so a second wait can be diagnosed with the
    original seqs.
    """

    __slots__ = ("req_id", "comm_label", "comm_ranks", "kind", "posts", "waited", "complete")

    def __init__(self, req_id: int, comm_label: str, comm_ranks: Tuple[int, ...], kind: str):
        self.req_id = req_id
        self.comm_label = comm_label
        self.comm_ranks = comm_ranks
        self.kind = kind
        self.posts: Dict[int, CollectivePost] = {}
        self.waited: set = set()
        self.complete = False

    @property
    def missing(self) -> Tuple[int, ...]:
        return tuple(r for r in self.comm_ranks if r not in self.posts)

    def seqs(self) -> Tuple[int, ...]:
        return tuple(p.seq for p in self.posts.values())


class _MovedBlock:
    """Ownership record of a block transferred by ``alltoall``."""

    __slots__ = ("ref", "owner", "seq")

    def __init__(self, ref, owner: int, seq: int):
        self.ref = ref
        self.owner = owner
        self.seq = seq


class CollectiveChecker:
    """Conformance monitor for collective schedules.

    Stateless to construct; accumulate state by posting collectives
    (directly, through :meth:`run_programs`, or by installation on a
    world).  All violations raise :class:`~repro.errors.ProtocolError`
    with the involved ranks, communicator labels and sequence numbers
    attached.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._completed: List[Tuple[CollectivePost, ...]] = []
        self._admitted: List[_Admitted] = []
        self._open: Dict[Tuple[str, Tuple[int, ...]], _InFlight] = {}
        self._inflight_of: Dict[int, _InFlight] = {}
        # nonblocking request state: per communicator, the FIFO of
        # groups not yet fully posted (MPI orders nonblocking
        # collectives on one communicator by call sequence); all groups
        # ever created (for double-wait diagnosis); per rank, the FIFO
        # of outstanding requests and the most recently retired one
        self._nb_open: Dict[Tuple[str, Tuple[int, ...]], List[_PendingGroup]] = {}
        self._requests: Dict[int, _PendingGroup] = {}
        self._req_counter = 0
        self._request_of: Dict[int, List[_PendingGroup]] = {}
        self._last_request_of: Dict[int, _PendingGroup] = {}
        self._membership: Dict[str, Tuple[int, ...]] = {}
        self._moved: Dict[int, _MovedBlock] = {}
        #: world trace seqs observed via ``observe_collective`` (lockstep)
        self.observed_events = 0
        self._last_t: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # core engine
    # ------------------------------------------------------------------
    @property
    def completed(self) -> List[Tuple[CollectivePost, ...]]:
        """Completed collectives' posts, in completion order; what was
        admitted whole is built here, on the first read, once."""
        for statement in self._admitted:
            self._completed.extend(statement.posts())
        self._admitted.clear()
        return self._completed

    @property
    def n_completed(self) -> int:
        """Collectives completed so far (builds nothing)."""
        return len(self._completed) + sum(s.rounds * len(s.groups) for s in self._admitted)

    def rank_is_blocked(self, rank: int) -> bool:
        """Whether ``rank`` is mid-flight in an incomplete collective."""
        return rank in self._inflight_of

    def _admit(
        self,
        rank: int,
        comm_label: str,
        comm_ranks: Sequence[int],
        kind: str,
        nbytes: int,
        op: str,
        dtype: str,
        site: int,
        *,
        nonblocking: bool,
    ) -> CollectivePost:
        """Number one rank's entry and run every per-rank admission check.

        Shared by :meth:`post` and :meth:`nb_post`: known kind, rank is
        a member, label keeps its membership, rank is not blocked
        mid-flight, and the in-flight exclusion rule.
        """
        self._seq += 1
        comm_ranks = tuple(int(r) for r in comm_ranks)
        post = CollectivePost(
            seq=self._seq,
            rank=int(rank),
            comm_label=comm_label,
            comm_ranks=comm_ranks,
            kind=kind,
            nbytes=int(nbytes),
            op=op,
            dtype=dtype,
            site=int(site),
        )
        what = f"nonblocking {kind}" if nonblocking else kind
        if kind not in KNOWN_KINDS:
            raise ProtocolError(
                f"unknown collective kind {kind!r} ({post.describe()})",
                ranks=(post.rank,),
                comm_labels=(comm_label,),
                seqs=(post.seq,),
                code="unknown-kind",
            )
        if post.rank not in comm_ranks:
            raise ProtocolError(
                f"rank {post.rank} posted {what} on {comm_label!r} but is not "
                f"a member (members: {list(comm_ranks)}) ({post.describe()})",
                ranks=(post.rank,),
                comm_labels=(comm_label,),
                seqs=(post.seq,),
                code="membership",
            )
        known = self._membership.get(comm_label)
        if known is None:
            self._membership[comm_label] = comm_ranks
        elif known != comm_ranks:
            raise ProtocolError(
                f"communicator label {comm_label!r} changed membership: "
                f"first seen as {list(known)}, now {list(comm_ranks)} "
                f"({post.describe()})",
                ranks=(post.rank,),
                comm_labels=(comm_label,),
                seqs=(post.seq,),
                code="membership",
            )
        blocked_in = self._inflight_of.get(post.rank)
        if blocked_in is not None:
            prior = blocked_in.posts[post.rank]
            stuck = (
                ""
                if nonblocking
                else f" (waiting for ranks {list(blocked_in.missing)}) — a "
                "blocking collective cannot overlap another"
            )
            raise ProtocolError(
                f"rank {post.rank} posted {what} on {comm_label!r} while "
                f"still mid-flight in {blocked_in.kind} on "
                f"{blocked_in.comm_label!r}{stuck} "
                f"({prior.describe()}; then {post.describe()})",
                ranks=(post.rank,),
                comm_labels=(blocked_in.comm_label, comm_label),
                seqs=(prior.seq, post.seq),
                code="mid-flight",
            )
        self._check_no_outstanding_request(post, nonblocking=nonblocking)
        return post

    def post(
        self,
        rank: int,
        *,
        comm_label: str,
        comm_ranks: Sequence[int],
        kind: str,
        nbytes: int = 0,
        op: str = "",
        dtype: str = "",
        site: int = -1,
    ) -> None:
        """Enter ``rank`` into a collective; validate on completion."""
        post = self._admit(
            rank, comm_label, comm_ranks, kind, nbytes, op, dtype, site,
            nonblocking=False,
        )
        comm_ranks = post.comm_ranks
        entry = self._open.get((comm_label, comm_ranks))
        if entry is None:
            entry = _InFlight(comm_label, comm_ranks, kind)
            self._open[(comm_label, comm_ranks)] = entry
        else:
            if entry.kind != kind:
                first = next(iter(entry.posts.values()))
                raise ProtocolError(
                    f"mismatched collective on {comm_label!r}: rank "
                    f"{post.rank} posted {kind} but the in-flight collective "
                    f"is {entry.kind} ({first.describe()}; then "
                    f"{post.describe()})",
                    ranks=(first.rank, post.rank),
                    comm_labels=(comm_label,),
                    seqs=(first.seq, post.seq),
                    code="mismatch",
                )
        entry.posts[post.rank] = post
        self._inflight_of[post.rank] = entry
        if not entry.missing:
            self._complete(entry)

    def _check_no_outstanding_request(
        self, post: CollectivePost, *, nonblocking: bool
    ) -> None:
        """Enforce the in-flight exclusion rule.

        A rank holding an unwaited nonblocking request may pipeline
        *further nonblocking collectives on the same communicator*
        (MPI's ordered-issue rule; the cost windows queue FIFO), but it
        may not enter a blocking collective, nor any collective on a
        *different* communicator that shares the rank — either would
        reorder its simulated time against the open cost window."""
        queue = self._request_of.get(post.rank)
        if not queue:
            return
        if nonblocking:
            offending = [
                req
                for req in queue
                if (req.comm_label, req.comm_ranks)
                != (post.comm_label, post.comm_ranks)
            ]
            if not offending:
                return
            req = offending[0]
        else:
            req = queue[0]
        prior = req.posts[post.rank]
        raise ProtocolError(
            f"rank {post.rank} posted {post.kind} on "
            f"{post.comm_label!r} while its nonblocking {req.kind} on "
            f"{req.comm_label!r} is still in flight (posted, not "
            f"waited) — wait on the request before the next collective "
            f"({prior.describe()}; then {post.describe()})",
            ranks=(post.rank,),
            comm_labels=(req.comm_label, post.comm_label),
            seqs=(prior.seq, post.seq),
            code="inflight-overlap",
        )

    def _cross_validate(
        self,
        kind: str,
        comm_label: str,
        comm_ranks: Tuple[int, ...],
        posts: Sequence[CollectivePost],
    ) -> None:
        """Group-wide conformance once every member has posted."""
        ref = posts[0]

        def _fail(attr: str, offender: CollectivePost, detail: str) -> None:
            raise ProtocolError(
                f"mismatched {attr} in {kind} on "
                f"{comm_label!r}: {detail} ({ref.describe()}; vs "
                f"{offender.describe()})",
                ranks=(ref.rank, offender.rank),
                comm_labels=(comm_label,),
                seqs=(ref.seq, offender.seq),
                code="mismatch",
            )

        for p in posts[1:]:
            if p.op != ref.op:
                _fail("reduce op", p, f"{ref.op!r} vs {p.op!r}")
            if p.dtype != ref.dtype:
                _fail("dtype", p, f"{ref.dtype!r} vs {p.dtype!r}")
            if kind == "allreduce" and p.nbytes != ref.nbytes:
                _fail(
                    "byte count",
                    p,
                    f"{kind} requires a uniform contribution, got "
                    f"{ref.nbytes} vs {p.nbytes}",
                )

    def _complete(self, entry: _InFlight) -> None:
        """All members arrived: cross-validate, then retire the entry."""
        posts = [entry.posts[r] for r in entry.comm_ranks]
        self._cross_validate(entry.kind, entry.comm_label, entry.comm_ranks, posts)
        for r in entry.comm_ranks:
            del self._inflight_of[r]
        del self._open[(entry.comm_label, entry.comm_ranks)]
        self.completed.append(tuple(posts))

    # ------------------------------------------------------------------
    # nonblocking requests (post / wait)
    # ------------------------------------------------------------------
    def nb_post(
        self,
        rank: int,
        *,
        comm_label: str,
        comm_ranks: Sequence[int],
        kind: str,
        nbytes: int = 0,
        op: str = "",
        dtype: str = "",
        site: int = -1,
    ) -> _PendingGroup:
        """One rank posts a nonblocking collective; never blocks.

        The first poster opens the group; the last poster completes the
        matching (cross-rank validation runs, the group is appended to
        :attr:`completed`).  Every poster then owes exactly one
        :meth:`nb_wait` per request.  Further nonblocking posts on the
        *same* communicator may pipeline behind it (FIFO, MPI's
        ordered-issue rule); any collective on a different communicator
        sharing the rank — or any blocking collective — while a request
        is outstanding is a diagnosed ``inflight-overlap``.
        """
        post = self._admit(
            rank, comm_label, comm_ranks, kind, nbytes, op, dtype, site,
            nonblocking=True,
        )
        comm_ranks = post.comm_ranks
        # MPI orders nonblocking collectives per communicator: a rank's
        # i-th post on this communicator joins the i-th open group
        open_groups = self._nb_open.setdefault((comm_label, comm_ranks), [])
        entry = next(
            (g for g in open_groups if post.rank not in g.posts), None
        )
        if entry is None:
            self._req_counter += 1
            entry = _PendingGroup(self._req_counter, comm_label, comm_ranks, kind)
            open_groups.append(entry)
            self._requests[entry.req_id] = entry
        elif entry.kind != kind:
            first = next(iter(entry.posts.values()))
            raise ProtocolError(
                f"mismatched nonblocking collective on {comm_label!r}: "
                f"rank {post.rank} posted {kind} but the in-flight "
                f"request is {entry.kind} ({first.describe()}; then "
                f"{post.describe()})",
                ranks=(first.rank, post.rank),
                comm_labels=(comm_label,),
                seqs=(first.seq, post.seq),
                code="mismatch",
            )
        entry.posts[post.rank] = post
        self._request_of.setdefault(post.rank, []).append(entry)
        self._last_request_of[post.rank] = entry
        if not entry.missing:
            self._cross_validate(
                entry.kind,
                entry.comm_label,
                entry.comm_ranks,
                [entry.posts[r] for r in entry.comm_ranks],
            )
            entry.complete = True
            open_groups.remove(entry)
            if not open_groups:
                del self._nb_open[(comm_label, comm_ranks)]
            self.completed.append(
                tuple(entry.posts[r] for r in entry.comm_ranks)
            )
        return entry

    def nb_wait_ready(self, rank: int) -> bool:
        """Whether ``rank``'s *oldest* outstanding request can complete."""
        queue = self._request_of.get(rank)
        return bool(queue) and queue[0].complete

    def nb_wait(
        self, rank: int, entry: "Optional[_PendingGroup]" = None
    ) -> None:
        """Retire ``rank``'s side of one outstanding request.

        With ``entry=None`` the *oldest* outstanding request is
        retired (program-style FIFO wait); passing a specific group
        retires that one (requests may be waited in any order, as with
        ``MPI_Wait`` on explicit handles).  A wait that matches no
        outstanding request is diagnosed: ``double-wait`` (with the
        original post seqs) when the request was already waited,
        ``stray-wait`` when the rank never posted one.
        """
        queue = self._request_of.get(rank)
        if not queue or (entry is not None and entry not in queue):
            prior = entry if entry is not None else self._last_request_of.get(rank)
            if prior is not None and rank in prior.posts:
                p = prior.posts[rank]
                raise ProtocolError(
                    f"rank {rank} waited twice on nonblocking "
                    f"{prior.kind} on {prior.comm_label!r} "
                    f"({p.describe()})",
                    ranks=(rank,),
                    comm_labels=(prior.comm_label,),
                    seqs=(p.seq,),
                    code="double-wait",
                )
            raise ProtocolError(
                f"rank {rank} waited with no nonblocking request "
                f"outstanding",
                ranks=(rank,),
                code="stray-wait",
            )
        if entry is None:
            entry = queue[0]
        queue.remove(entry)
        if not queue:
            del self._request_of[rank]
        entry.waited.add(rank)

    def abandon_inflight(self) -> None:
        """Drop all in-flight nonblocking protocol state.

        Fault-recovery hook: when a rank failure aborts a step, any
        posted-but-unwaited requests can never legally complete — the
        failed communicator is revoked, MPI-style.  Recovery rolls the
        ensemble back and replays from a checkpoint, so the stranded
        state is discarded here rather than later misdiagnosed as
        ``never-waited`` or ``inflight-overlap`` during the replay.
        Blocking (schedule-mode) state is untouched.
        """
        self._nb_open.clear()
        self._requests.clear()
        self._request_of.clear()
        self._last_request_of.clear()

    # ------------------------------------------------------------------
    # quiescence / deadlock diagnosis
    # ------------------------------------------------------------------
    def assert_quiescent(self) -> None:
        """Raise unless every posted collective has completed.

        The failure diagnosis is the wait-for graph: for each stuck
        collective, who arrived (with seq numbers) and where each
        missing rank is blocked instead — the hang a real job would
        experience, named instead of suffered.
        """
        if self._open or self._nb_open:
            self._raise_deadlock()
        if self._request_of:
            # every group fully posted, but some rank never waited
            lines = ["nonblocking request(s) never waited:"]
            ranks: List[int] = []
            labels: List[str] = []
            seqs: List[int] = []
            for entry in sorted(
                {
                    id(e): e
                    for queue in self._request_of.values()
                    for e in queue
                }.values(),
                key=lambda e: e.req_id,
            ):
                outstanding = [
                    r
                    for r in entry.comm_ranks
                    if entry in self._request_of.get(r, [])
                ]
                lines.append(
                    f"  nonblocking {entry.kind} on {entry.comm_label!r} "
                    f"(post seqs {sorted(entry.seqs())}) was posted but "
                    f"never waited by ranks {outstanding}"
                )
                labels.append(entry.comm_label)
                ranks.extend(outstanding)
                seqs.extend(entry.posts[r].seq for r in outstanding)
            raise ProtocolError(
                "\n".join(lines),
                ranks=tuple(ranks),
                comm_labels=tuple(labels),
                seqs=tuple(seqs),
                code="never-waited",
            )

    def _raise_deadlock(self) -> None:
        lines: List[str] = ["collective protocol deadlock:"]
        ranks: List[int] = []
        labels: List[str] = []
        seqs: List[int] = []
        for key in sorted(self._open):
            entry = self._open[key]
            label = entry.comm_label
            arrived = ", ".join(
                f"{r} (seq {entry.posts[r].seq})" for r in entry.posts
            )
            lines.append(
                f"  {entry.kind} on {label!r} is stuck: arrived [{arrived}], "
                f"missing ranks {list(entry.missing)}"
            )
            labels.append(label)
            ranks.extend(entry.posts)
            seqs.extend(p.seq for p in entry.posts.values())
            for r in entry.missing:
                other = self._inflight_of.get(r)
                if other is not None and other is not entry:
                    p = other.posts[r]
                    lines.append(
                        f"    rank {r} is blocked in {other.kind} on "
                        f"{other.comm_label!r} (seq {p.seq}) — wait-for cycle "
                        f"between {label!r} and {other.comm_label!r}"
                    )
                    ranks.append(r)
                else:
                    lines.append(f"    rank {r} never posted")
        for key in sorted(self._nb_open):
            for entry in self._nb_open[key]:
                arrived = ", ".join(
                    f"{r} (seq {entry.posts[r].seq})" for r in entry.posts
                )
                lines.append(
                    f"  nonblocking {entry.kind} on {entry.comm_label!r} is "
                    f"stuck: posted by [{arrived}], missing ranks "
                    f"{list(entry.missing)}"
                )
                labels.append(entry.comm_label)
                ranks.extend(entry.posts)
                seqs.extend(entry.seqs())
        raise ProtocolError(
            "\n".join(lines),
            ranks=tuple(ranks),
            comm_labels=tuple(labels),
            seqs=tuple(seqs),
            code="deadlock",
        )

    def run_programs(
        self, programs: Mapping[int, Sequence[Mapping[str, object]]]
    ) -> int:
        """Simulate blocking SPMD execution of per-rank programs.

        ``programs`` maps world rank -> ordered list of op dicts.  A
        plain dict (``comm_label``, ``comm_ranks``, ``kind``,
        optionally ``nbytes``/``op``/``dtype``) is a blocking
        collective; with ``"mode": "post"`` it is a *nonblocking post*
        (the rank continues immediately), and ``{"mode": "wait"}`` waits
        on the rank's outstanding request — blocking until every group
        member has posted.  Each rank executes its program in order.
        Returns the number of collectives completed; raises
        :class:`~repro.errors.ProtocolError` on any mismatch, on
        deadlock (no progress with work remaining — including a wait
        whose group never fully posts), and on requests left unwaited
        at the end.
        """
        pc = {int(r): 0 for r in programs}
        progs = {int(r): list(p) for r, p in programs.items()}
        before = self.n_completed
        progress = True
        while progress:
            progress = False
            for r in sorted(progs):
                if self.rank_is_blocked(r) or pc[r] >= len(progs[r]):
                    continue
                spec = dict(progs[r][pc[r]])
                mode = spec.pop("mode", "blocking")
                if mode == "wait":
                    if not self._request_of.get(r):
                        self.nb_wait(r)  # raises double-/stray-wait
                    if not self.nb_wait_ready(r):
                        continue  # group not fully posted yet: block
                    self.nb_wait(r)
                    pc[r] += 1
                    progress = True
                    continue
                spec.setdefault("site", pc[r])
                if mode == "post":
                    self.nb_post(r, **spec)  # type: ignore[arg-type]
                elif mode == "blocking":
                    self.post(r, **spec)  # type: ignore[arg-type]
                else:
                    raise ProtocolError(
                        f"rank {r}: unknown program op mode {mode!r}",
                        ranks=(r,),
                        code="unknown-kind",
                    )
                pc[r] += 1
                progress = True
        self.assert_quiescent()
        return self.n_completed - before

    # ------------------------------------------------------------------
    # lockstep integration (world / communicator hooks)
    # ------------------------------------------------------------------
    def _admit_whole(
        self, kind: str, op: str, dtype: str, groups: Sequence[Tuple[int, ...]],
        labels: Sequence[str], sizes: Sequence[Tuple[int, ...]], rounds: int,
    ) -> bool:
        """Admit ``rounds`` collectives on each of ``groups`` at once,
        posts unbuilt, if none would raise (known kind, no rank busy,
        each label keeping its membership); else change nothing."""
        busy = self._inflight_of.keys() | self._request_of.keys()
        membership = self._membership
        if kind not in KNOWN_KINDS or len(set(labels)) != len(labels) or not all(
            membership.get(label, ranks) == ranks and busy.isdisjoint(ranks)
            for ranks, label in zip(groups, labels)
        ):
            return False
        for ranks, label in zip(groups, labels):
            membership.setdefault(label, ranks)
        self._admitted.append(_Admitted(
            kind, op, dtype, groups, labels, sizes, rounds, self._seq, self.observed_events
        ))
        self._seq += rounds * sum(map(len, groups))
        return True

    def lockstep_collective(
        self, kind: str, ranks: Tuple[int, ...], label: str, sizes: Sequence[int],
        *, op: str = "", dtypes: Optional[Sequence[str]] = None,
    ) -> None:
        """Validate one lockstep-executed blocking collective before it
        is charged: admitted whole when clean, else posted rank by rank
        through :meth:`post`, which raises the diagnosis.  ``sizes`` and
        ``dtypes`` are per member, in communicator order; a mixed group
        (float32 against float64 peers, which NumPy would silently
        upcast) is a diagnosed mismatch."""
        dtype = dtypes[0] if dtypes else ""
        uniform = (dtypes is None or len(set(dtypes)) == 1) and (
            kind != "allreduce" or len(set(sizes)) == 1
        )
        if uniform and self._admit_whole(kind, op, dtype, (ranks,), (label,), (tuple(sizes),), 1):
            return
        self._post_each(self.post, kind, ranks, label, sizes, op, dtypes)

    def lockstep_rows(
        self, rows: "CollectiveRows", admit: Optional[Tuple[str, str]] = None
    ) -> bool:
        """Admit (``admit = (op, dtype)``, each rank sending its group's
        ``rows.nbytes``) and overlap-check a charged block at once if no
        row would raise — only round 0 can overlap, as a later round
        starts where the one before ended; else change nothing and return
        False, for the caller to replay the rows one by one."""
        groups, last_t = rows.groups, self._last_t
        if rows.overlapped_s is None and any(
            t_start < last_t.get(r, t_start) - 1e-12
            for ranks, t_start in zip(groups, rows.t_starts[0]) for r in ranks
        ):
            return False
        if admit is not None and not self._admit_whole(
            rows.kind, *admit, groups, rows.labels,
            [(nbytes,) * len(ranks) for ranks, nbytes in zip(groups, rows.nbytes)],
            len(rows.t_starts),
        ):
            return False
        self.observed_events += len(rows.t_starts) * len(groups)
        for ranks, t_start, cost in zip(groups, rows.t_starts[-1], rows.costs):
            end = t_start + cost
            for r in ranks:
                last_t[r] = max(last_t.get(r, end), end)
        return True

    def lockstep_post(
        self, kind: str, ranks: Tuple[int, ...], label: str, sizes: Sequence[int],
        *, op: str = "", dtypes: Optional[Sequence[str]] = None,
    ) -> int:
        """Validate one lockstep-posted *nonblocking* collective.

        Called by :meth:`Communicator.iallreduce` /
        :meth:`Communicator.ialltoall` at post time; every member
        posts at once, so the group matches immediately, but each
        member's request stays outstanding until :meth:`lockstep_wait`.
        Returns the request id to pass back at the wait.
        """
        entry = self._post_each(self.nb_post, kind, ranks, label, sizes, op, dtypes)
        assert entry.complete
        return entry.req_id

    def _post_each(self, post, kind, ranks, label, sizes, op, dtypes):
        """``post`` (:meth:`post` or :meth:`nb_post`) every member in
        communicator order; returns the last call's result."""
        for k, r in enumerate(ranks):
            got = post(
                r, comm_label=label, comm_ranks=ranks, kind=kind, nbytes=int(sizes[k]),
                op=op, dtype="" if dtypes is None else dtypes[k], site=self.observed_events,
            )
        return got

    def lockstep_wait(self, req_id: int) -> None:
        """Retire every rank of a lockstep-posted request.

        A second wait on the same request id is a diagnosed
        ``double-wait`` carrying the original post seqs.
        """
        entry = self._requests.get(req_id)
        if entry is None:
            raise ProtocolError(
                f"wait on unknown nonblocking request id {req_id}",
                code="stray-wait",
            )
        if entry.waited:
            raise ProtocolError(
                f"nonblocking {entry.kind} on {entry.comm_label!r} waited "
                f"twice (post seqs {sorted(entry.seqs())})",
                ranks=entry.comm_ranks,
                comm_labels=(entry.comm_label,),
                seqs=entry.seqs(),
                code="double-wait",
            )
        for r in entry.comm_ranks:
            self.nb_wait(r, entry)

    def check_alltoall_blocks(
        self, comm: "Communicator", rows: Sequence[Sequence[np.ndarray]]
    ) -> None:
        """Enforce ``alltoall`` move semantics on the submitted blocks.

        ``rows[i][j]`` is the block comm-rank ``i`` sends to comm-rank
        ``j``.  Transfers are *by reference*: once submitted, a block
        belongs to its destination, and the sender resubmitting that
        same array object later is flagged — the silent-aliasing
        footgun documented in :mod:`repro.vmpi.communicator`.  The
        destination itself may legitimately send the block onward.
        """
        seen_here: Dict[int, Tuple[int, np.ndarray]] = {}
        for i, row in enumerate(rows):
            sender = comm.ranks[i]
            for block in row:
                if not isinstance(block, np.ndarray) or block.nbytes == 0:
                    continue
                key = id(block)
                dup = seen_here.get(key)
                if dup is not None and dup[1] is block:
                    raise ProtocolError(
                        f"alltoall on {comm.label!r}: ranks {dup[0]} and "
                        f"{sender} submitted the *same* array object to "
                        f"multiple destinations — blocks move by reference "
                        f"and may be sent exactly once",
                        ranks=(dup[0], sender),
                        comm_labels=(comm.label,),
                        seqs=(self._seq + 1,),
                        code="moved-block",
                    )
                seen_here[key] = (sender, block)
                rec = self._moved.get(key)
                if (
                    rec is not None
                    and rec.ref() is block
                    and rec.owner != sender
                ):
                    raise ProtocolError(
                        f"alltoall on {comm.label!r}: rank {sender} "
                        f"resubmitted a block it already moved to rank "
                        f"{rec.owner} (transferred at checker seq "
                        f"{rec.seq}) — submitted blocks are moved, not "
                        f"copied",
                        ranks=(sender, rec.owner),
                        comm_labels=(comm.label,),
                        seqs=(rec.seq, self._seq + 1),
                        code="moved-block",
                    )
        # the exchange is legal: record the ownership transfers
        for i, row in enumerate(rows):
            for j, block in enumerate(row):
                if not isinstance(block, np.ndarray) or block.nbytes == 0:
                    continue
                try:
                    ref = weakref.ref(block)
                except TypeError:  # pragma: no cover - exotic subclasses
                    continue
                self._moved[id(block)] = _MovedBlock(
                    ref, owner=comm.ranks[j], seq=self._seq + 1
                )
        if len(self._moved) > 65536:
            self._moved = {
                k: v for k, v in self._moved.items() if v.ref() is not None
            }

    def observe_collective(
        self, seq: int, kind: str, comm_label: str, ranks: Sequence[int],
        t_start: float, cost_s: float, nonblocking: bool,
    ) -> None:
        """Post-execution bookkeeping for world trace event ``seq``.

        Validates the physical-time invariant the cost model must
        preserve — a rank's *blocking* collectives never run backwards
        in simulated time — and counts events so diagnoses can
        reference world trace seq numbers.  Nonblocking events are
        exempt from the backwards check: pipelined same-communicator
        requests may legally be waited (and hence emitted) out of
        window order, and the world serializes their cost windows at
        post time, so emission order carries no overlap information.
        """
        self.observed_events += 1
        end = t_start + cost_s
        for r in ranks:
            last = self._last_t.get(r)
            if last is not None and not nonblocking and t_start < last - 1e-12:
                raise ProtocolError(
                    f"trace seq {seq}: {kind} on {comm_label!r} starts at "
                    f"t={t_start:.9f} but rank {r} was already past "
                    f"t={last:.9f} — overlapping collectives on one rank",
                    ranks=(r,),
                    comm_labels=(comm_label,),
                    seqs=(seq,),
                    code="overlap",
                )
            self._last_t[r] = end if last is None else max(last, end)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[Tuple[str, str], int]:
        """Completed-collective counts keyed by (comm label, kind)."""
        out: Dict[Tuple[str, str], int] = {}
        for posts in self._completed:
            key = (posts[0].comm_label, posts[0].kind)
            out[key] = out.get(key, 0) + 1
        for s in self._admitted:
            for label in s.labels:
                out[label, s.kind] = out.get((label, s.kind), 0) + s.rounds
        return out

    def membership(self) -> Dict[str, Tuple[int, ...]]:
        """Adopted label -> ordered membership table."""
        return dict(self._membership)
