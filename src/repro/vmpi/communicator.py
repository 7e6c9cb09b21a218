"""Communicators and lockstep collectives.

A :class:`Communicator` is an *ordered* group of world ranks belonging
to a :class:`~repro.vmpi.world.VirtualWorld`.  Its collective methods
take and return data keyed by **world rank** — the natural indexing in
lockstep SPMD, where one driver holds every rank's block — while block
ordering inside ``alltoall`` follows **communicator rank**, exactly as
MPI buffers do.  The two collectives are the two the model issues:
AllReduce inside the str phase and the AllToAll of the str<->coll
transpose.

Every collective performs the real data movement with NumPy and charges
the modeled cost through the world (entry synchronisation + algorithm
cost), recording a trace event.

Notes on buffer ownership: within one address space a reduction is a
memory operation, so ``allreduce``/``iallreduce`` take their operand as
one array stacked over the members (a
:class:`~repro.vmpi.datatypes.RankStacked`, usually a strided view of
the caller's own state; a plain ``{rank: array}`` mapping is stacked
first), never write to it, and deliver **one read-only result array
shared by every member** — a member that wants to modify its result
copies it.  :func:`allreduce_rounds` — many communicators reducing
windows of one stacked operand, several rounds in a row — likewise
reads its operand where it lies and returns one read-only array for
everybody.  ``alltoall`` transfers the sent blocks *by reference* (like a rendezvous protocol handing off pages); senders must
treat submitted blocks as moved.  With a
:class:`~repro.check.checker.CollectiveChecker` installed
(``world.install_checker``), resubmitting a moved block raises a
diagnosed :class:`~repro.errors.ProtocolError` instead of silently
aliasing data.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CollectiveError, CommunicatorError, ProtocolError
from repro.vmpi.datatypes import RankStacked, reduce_ranks

ArrayLike = Union[np.ndarray, float, int, complex]


class Request:
    """Handle for a posted nonblocking collective.

    Returned by :meth:`Communicator.iallreduce` /
    :meth:`Communicator.ialltoall`.  Exactly one completion is allowed:
    :meth:`wait` charges the uncovered remainder of the modeled cost and
    delivers the payload; a second :meth:`wait` raises :class:`~repro.errors.ProtocolError`
    (code ``double-wait``) even without a checker installed.
    """

    __slots__ = ("comm", "kind", "_pending", "_payload", "_ck_req", "result", "_done")

    def __init__(self, comm: "Communicator", kind: str, pending, payload, ck_req) -> None:
        self.comm = comm
        self.kind = kind
        self._pending = pending
        self._payload = payload  # zero-arg callable producing the result
        self._ck_req = ck_req
        self.result = None
        self._done = False

    def wait(self):
        """Complete the collective; returns the payload.

        Charges each participant the part of the cost window not
        already covered by compute charged since the post.
        """
        if self._done:
            raise ProtocolError(
                f"wait() called twice on nonblocking {self.kind} "
                f"on {self.comm.label!r}",
                ranks=self._pending.ranks,
                comm_labels=(self.comm.label,),
                code="double-wait",
            )
        ck = self.comm.world.checker
        if ck is not None and self._ck_req is not None:
            ck.lockstep_wait(self._ck_req)
        self.comm.world.complete_collective(self._pending)
        self._done = True
        self.result = self._payload()
        return self.result


def allreduce_rounds(
    comms: Sequence["Communicator"],
    stack: np.ndarray,
    columns: Sequence[slice],
    *,
    ranks: Sequence[int] = (),
    flops: Optional[Sequence[float]] = None,
    compute_category: Optional[str] = None,
    category: Optional[str] = None,
) -> np.ndarray:
    """Every rank calls ``allreduce`` on its own communicator, once per
    round: the lockstep form of that one SPMD statement.

    ``comms`` are ordered, pairwise disjoint communicators of one size
    on one world (:class:`~repro.errors.CollectiveError` otherwise;
    disjointness and size are checked once per distinct family).
    ``stack`` has shape ``(size, rounds, ..., n)``: row ``i`` is what
    comm rank ``i`` of *every* group contributes, and group ``g``
    reduces the last-axis window ``columns[g]`` of it, one round at a
    time.  Given per-chunk ``flops``, a chunk axis follows the rank
    axis, ``(size, len(flops), rounds, ..., n)``: chunk ``c`` is the
    statement a chunked loop issues after charging ``ranks`` the
    compute of ``flops[c]`` under ``compute_category``.  The rank axis is
    folded elementwise, so the whole operand is reduced by **one**
    :func:`~repro.vmpi.datatypes.reduce_ranks` — bit for bit what the per-(round, group)
    ``allreduce`` of ``stack[:, m, ..., columns[g]]`` delivers wherever
    such a window holds more than one element per rank (a one-element
    window is a 1-d reduction there, which NumPy folds pairwise from
    eight ranks up) — and **one** read-only array, ``stack`` less its
    rank axis, comes back, whose window ``columns[g]`` is what the
    ranks of ``comms[g]`` hold.

    The world books ``rounds x len(comms)`` modeled AllReduces (per
    chunk, after its compute charge), each with its group's own byte
    count, algorithm and price, each admitted by an installed checker
    and recorded exactly as the double loop — rounds outer, groups
    inner — of :meth:`Communicator.allreduce` would have, in phase
    ``category`` (:meth:`VirtualWorld.charge_collective_block`).
    """
    if len(comms) == 0 or len(columns) != len(comms):
        raise CollectiveError(
            f"allreduce_rounds needs one column window per communicator, "
            f"got {len(comms)} communicators and {len(columns)} windows"
        )
    world, size = comms[0].world, comms[0].size
    if any(comm.world is not world for comm in comms):
        raise CollectiveError("allreduce_rounds: communicators of different worlds")
    stack = np.asarray(stack)
    axes = (size,) if flops is None else (size, len(flops))  # ranks, then chunks
    lead = len(axes)
    if stack.ndim < lead + 2 or stack.shape[:lead] != axes or 0 in stack.shape[1 : lead + 1]:
        layout = "size" if flops is None else f"size, {len(flops)} chunks"
        raise CollectiveError(
            f"allreduce_rounds: operand of shape {stack.shape} does not stack "
            f"the {size} ranks of each communicator as ({layout}, rounds >= 1, ..., n)"
        )
    result = reduce_ranks(stack)
    result.setflags(write=False)
    rounds, n = stack.shape[lead], stack.shape[-1]
    column_bytes = stack.itemsize * math.prod(stack.shape[lead + 1 : -1])
    nbytes = [len(range(*window.indices(n))) * column_bytes for window in columns]
    world.charge_collective_block(
        "allreduce",
        tuple([comm.ranks for comm in comms]),
        nbytes,
        rounds,
        comm_labels=[comm.label for comm in comms],
        algorithms=[world.cost_model.select_algorithm("allreduce")] * len(nbytes),
        category=category,
        admit=None if world.checker is None else ("SUM", str(stack.dtype)),
        ranks=ranks, flops=flops, compute_category=compute_category,
    )
    return result


class Communicator:
    """An ordered group of world ranks with collective operations."""

    __slots__ = ("world", "_ranks", "_index", "label")

    def __init__(self, world, ranks: Sequence[int], *, label: str = "comm") -> None:
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) == 0:
            raise CommunicatorError("a communicator needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise CommunicatorError(f"duplicate ranks in communicator: {ranks}")
        for r in ranks:
            if not 0 <= r < world.n_ranks:
                raise CommunicatorError(
                    f"world rank {r} out of range [0, {world.n_ranks})"
                )
        self.world = world
        self._ranks = ranks
        self._index = {r: i for i, r in enumerate(ranks)}
        self.label = label

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._ranks)

    @property
    def ranks(self) -> Tuple[int, ...]:
        """World ranks in communicator order."""
        return self._ranks

    def sub(self, world_ranks: Sequence[int], *, label: Optional[str] = None) -> "Communicator":
        """Sub-communicator of the given world ranks (must be members)."""
        for r in world_ranks:
            if r not in self._index:
                raise CommunicatorError(
                    f"world rank {r} is not in communicator {self.label!r}"
                )
        return Communicator(
            self.world, world_ranks, label=label or f"{self.label}.sub"
        )

    # ------------------------------------------------------------------
    # shared preparation and the single issue path
    # ------------------------------------------------------------------
    def _check_participants(self, data: Mapping[int, object], what: str) -> None:
        if data.keys() != self._index.keys():
            missing = sorted(set(self._ranks) - set(data.keys()))
            extra = sorted(set(data.keys()) - set(self._ranks))
            raise CommunicatorError(
                f"{what} on {self.label!r}: participant mismatch "
                f"(missing ranks {missing}, unexpected ranks {extra})"
            )

    def _same_shape_arrays(
        self, values: Mapping[int, ArrayLike], what: str
    ) -> List[np.ndarray]:
        """Members' contributions in comm-rank order, all of one shape."""
        arrays = [np.asarray(values[r]) for r in self._ranks]
        shape = arrays[0].shape
        for a, r in zip(arrays, self._ranks):
            if a.shape != shape:
                raise CollectiveError(
                    f"{what} on {self.label!r}: rank {r} has shape {a.shape}, "
                    f"expected {shape}"
                )
        return arrays

    def _issue(
        self,
        kind: str,
        sizes: Sequence[int],
        nbytes: int,
        *,
        typed: Optional[Sequence[np.ndarray]] = None,
        op: str = "",
        algorithm: Optional[object] = None,
        payload: Optional[Callable[[], object]] = None,
    ) -> Optional[Request]:
        """Checker hook, then the world's charge: every collective ends here.

        ``sizes`` are the members' byte counts in comm-rank order and
        ``typed`` their buffers when the kind must agree on a dtype;
        ``nbytes`` is what the kind's cost formula is evaluated at.
        With ``payload`` the collective is posted nonblocking instead,
        and the :class:`Request` delivering ``payload()`` is returned.
        """
        world = self.world
        ck = world.checker
        ck_req = None
        if ck is not None:
            hook = ck.lockstep_collective if payload is None else ck.lockstep_post
            dtypes = None
            if typed is not None:
                # str(dtype) is slow: once per distinct dtype, not per rank
                name_of = {dt: str(dt) for dt in {a.dtype for a in typed}}
                dtypes = [name_of[a.dtype] for a in typed]
            ck_req = hook(kind, self._ranks, self.label, sizes, op=op, dtypes=dtypes)
        charge = world.charge_collective if payload is None else world.post_collective
        charged = charge(
            kind,
            self._ranks,
            nbytes,
            comm_label=self.label,
            algorithm=algorithm,
        )
        if payload is None:
            return None
        return Request(self, kind, charged, payload, ck_req)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _rank_stacked(
        self, values: Mapping[int, ArrayLike], what: str
    ) -> Tuple[np.ndarray, Sequence[int], Sequence[np.ndarray]]:
        """A reduction's operand as one ``(size, ...)`` array in comm-rank
        order, with the members' byte counts and the buffers whose
        dtypes the checker compares.

        A :class:`RankStacked` over this communicator's rank tuple is
        taken as it stands — one array has one shape and one dtype, and
        equal tuples are the same participants — anything else is
        checked per member and stacked.
        """
        if isinstance(values, RankStacked) and values.ranks == self._ranks:
            stack, size = values.array, len(self._ranks)
            return stack, (stack.nbytes // size,) * size, (stack,) * size
        self._check_participants(values, what)
        arrays = self._same_shape_arrays(values, what)
        return np.stack(arrays), [a.nbytes for a in arrays], arrays

    def _allreduce(
        self,
        values: Mapping[int, ArrayLike],
        algorithm: Optional[object],
        nonblocking: bool,
    ) -> Union[Dict[int, np.ndarray], Request]:
        """Body of :meth:`allreduce` and :meth:`iallreduce`."""
        stack, sizes, typed = self._rank_stacked(
            values, "iallreduce" if nonblocking else "allreduce"
        )
        result = reduce_ranks(stack)
        result.setflags(write=False)  # a no-op on the scalar of a 1-d stack
        shared = dict.fromkeys(self._ranks, result)
        nbytes = max(sizes)
        request = self._issue(
            "allreduce",
            sizes,
            nbytes,
            typed=typed,
            op="SUM",
            algorithm=algorithm
            if algorithm is not None
            else self.world.cost_model.select_algorithm("allreduce"),
            payload=(lambda: shared) if nonblocking else None,
        )
        return request if nonblocking else shared

    def allreduce(
        self,
        values: Mapping[int, ArrayLike],
        *,
        algorithm: Optional[object] = None,
    ) -> Dict[int, np.ndarray]:
        """Elementwise sum; every member receives the result.

        ``values`` maps world rank -> equal-shape array (or scalar):
        a :class:`RankStacked` view, reduced where it lies, or any
        other mapping, stacked first.  Every member maps to the *same*
        read-only result array.  ``algorithm`` overrides the cost
        model's default for this one call.
        """
        return self._allreduce(values, algorithm, False)

    def iallreduce(self, values: Mapping[int, ArrayLike]) -> Request:
        """Nonblocking :meth:`allreduce`; returns a :class:`Request`.

        The reduction is combined at post time (send buffers must not
        be mutated between post and wait, as in MPI); the modeled cost
        accrues concurrently with compute charged on the same ranks,
        and ``wait()`` returns the per-rank result dict.
        """
        return self._allreduce(values, None, True)

    def _alltoall(
        self, send: Mapping[int, Sequence[np.ndarray]], nonblocking: bool
    ) -> Union[Dict[int, List[np.ndarray]], Request]:
        """Body of :meth:`alltoall` and :meth:`ialltoall`."""
        what = "ialltoall" if nonblocking else "alltoall"
        self._check_participants(send, what)
        rows: List[Sequence[np.ndarray]] = []
        for r in self._ranks:
            row = send[r]
            if len(row) != self.size:
                raise CollectiveError(
                    f"{what} on {self.label!r}: rank {r} provided "
                    f"{len(row)} blocks, expected {self.size}"
                )
            rows.append(row)
        ck = self.world.checker
        if ck is not None:
            ck.check_alltoall_blocks(self, rows)
        recv: Dict[int, List[np.ndarray]] = {
            r: [rows[i][j] for i in range(self.size)]
            for j, r in enumerate(self._ranks)
        }
        sizes = [sum(np.asarray(b).nbytes for b in row) for row in rows]
        # completion is bounded by the busiest rank's send volume
        nbytes = max(sizes)
        request = self._issue(
            "alltoall",
            sizes,
            nbytes,
            algorithm=self.world.cost_model.select_algorithm("alltoall"),
            payload=(lambda: recv) if nonblocking else None,
        )
        return request if nonblocking else recv

    def alltoall(
        self, send: Mapping[int, Sequence[np.ndarray]]
    ) -> Dict[int, List[np.ndarray]]:
        """Personalised exchange (vector alltoall).

        ``send[world_rank][j]`` is the block for communicator rank
        ``j``; blocks may have arbitrary (even empty) shapes, so this
        single method covers MPI_Alltoall(v|w).  Returns
        ``recv[world_rank][i]`` = block sent by communicator rank ``i``.
        """
        return self._alltoall(send, False)

    def ialltoall(self, send: Mapping[int, Sequence[np.ndarray]]) -> Request:
        """Nonblocking :meth:`alltoall`; returns a :class:`Request`.

        Blocks move by reference exactly as in the blocking form —
        they are *moved at post* (resubmitting one is a checker
        violation); ``wait()`` delivers the recv rows.
        """
        return self._alltoall(send, True)
