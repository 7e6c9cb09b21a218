"""The shared-cmat collision scheme (the paper's core optimisation).

One cmat, distributed over *every* rank of the ensemble.  Per rank
that is ``nv^2 * nc/(k*P1) * nt_loc`` doubles — k times less than the
stock scheme — and building it costs k times less compute, because
each (ic, n) propagator is inverted once per *ensemble* instead of
once per member.

The coll phase becomes, per toroidal group ``i2``, a single vector
AllToAll over the ensemble-wide communicator (k*P1 ranks): every
member rank slices its STR block into per-destination nc-pieces; every
destination rank reassembles, per member, a full-nv block of its owned
configuration points, applies the shared propagator to all k in one
call, and the inverse AllToAll restores the STR layout.  Per-rank
send volume equals the stock transpose's (the whole block), so the
AllToAll cost is comparable — the str AllReduce shrinkage and the
memory win are where the paper's savings come from.

Shard map
---------
Ownership of the shared tensor is held as an explicit *shard map*: per
toroidal group, an ordered list of :class:`CollShard` entries mapping
a world rank to the global configuration indices whose propagator
blocks it stores.  A fresh ensemble uses the balanced contiguous
assignment of :func:`~repro.xgyro.partition.ensemble_nc_counts`
(identical to the historical even split whenever nc divides), but the
coll phase itself only relies on the map being a disjoint cover of nc.
That generality is what the resilience layer builds on: after a rank
or node loss, :meth:`recover_after_loss` drops the removed ranks,
hands their configuration indices to survivors, and recomputes *only*
the lost blocks — the Figure-3 partition shrinks without rebuilding
the surviving ~(k-1)/k of the tensor.

This scheme deliberately cannot run from ``CgyroSimulation.step``:
the ensemble AllToAll needs every member's blocks at once, so the
:class:`~repro.xgyro.driver.XgyroEnsemble` driver calls
:meth:`ensemble_collision_step` after all members finish their str/nl
phases.  That is the communicator separation of Figure 3 made
concrete.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import EnsembleValidationError, RecoveryFailed
from repro.cgyro.collision_scheme import CollisionScheme
from repro.collision.cmat import (
    CmatPropagator,
    CmatWindow,
    apply_flops,
    apply_propagator,
    cmat_block_bytes,
)
from repro.vmpi.communicator import Communicator
from repro.xgyro.partition import ensemble_coll_ranks, ensemble_nc_counts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cgyro.solver import CgyroSimulation


@dataclass(frozen=True)
class CollShard:
    """One rank's slice of the shared tensor within a toroidal group.

    ``ic_indices`` are the *global* configuration indices whose
    ``(nv, nv)`` propagator blocks this rank stores, sorted ascending.
    A freshly-built ensemble uses contiguous runs; after a recovery a
    survivor may own several disjoint runs (its own plus adopted ones).
    """

    world_rank: int
    ic_indices: Tuple[int, ...]

    @property
    def n_ic(self) -> int:
        """Number of configuration points owned."""
        return len(self.ic_indices)

    def index(self) -> Union[slice, List[int]]:
        """Fastest NumPy index selecting the owned rows: a slice when
        the indices are one contiguous run (keeps views on the send
        path), else the explicit list."""
        ics = self.ic_indices
        if ics and ics[-1] - ics[0] + 1 == len(ics):
            return slice(ics[0], ics[-1] + 1)
        return list(ics)


class SharedCmatScheme(CollisionScheme):
    """cmat shared across an ensemble; coll phase on ensemble comms.

    Parameters
    ----------
    charge_build:
        Charge the ``cmat_build`` assembly flops to the member ranks'
        simulated clocks during :meth:`finalize` (the default).  The
        campaign scheduler's cross-job :class:`~repro.campaign.cache.CmatCache`
        passes ``False`` when a job's signature hits the cache: the
        tensor contents are identical to the previous job's, so the
        machine keeps them resident and re-assembly costs nothing.
        Memory is still allocated in the ledgers either way — a cache
        hit saves time, not space.
    nc_counts:
        Optional explicit per-comm-rank configuration-point counts for
        the initial shard map, in comm-rank order (length ``k * P1``,
        every entry >= 1, summing to nc).  ``None`` keeps the balanced
        :func:`~repro.xgyro.partition.ensemble_nc_counts` assignment.
        The coll phase only needs the map to be a disjoint cover of nc,
        so *unbalanced* counts (e.g. speed-proportional ones chosen by
        the :mod:`repro.plan` autotuner on a heterogeneous machine) are
        physics-neutral: results stay bit-identical.
    overlap:
        One of :data:`~repro.cgyro.solver.OVERLAP_MODES`.  With
        ``"coll"`` or ``"full"`` the coll phase pipelines its ensemble
        AllToAlls (see :meth:`ensemble_collision_step`); physics is
        bit-identical, only the modeled schedule changes.
    """

    def __init__(
        self,
        *,
        charge_build: bool = True,
        nc_counts: "Sequence[int] | None" = None,
        overlap: str = "off",
    ) -> None:
        from repro.cgyro.solver import OVERLAP_MODES

        if overlap not in OVERLAP_MODES:
            raise EnsembleValidationError(
                f"overlap must be one of {OVERLAP_MODES}, got {overlap!r}"
            )
        self.overlap = overlap
        self.members: List["CgyroSimulation"] = []
        self.charge_build = charge_build
        self.nc_counts = None if nc_counts is None else tuple(int(c) for c in nc_counts)
        self._finalized = False
        self._cmat: Dict[int, CmatWindow] = {}
        self._checksums: Dict[int, str] = {}
        self._coll_comm: Dict[int, Communicator] = {}
        self._shards: Dict[int, List[CollShard]] = {}
        self._prop: "CmatPropagator | None" = None
        self._generation = 0

    # ------------------------------------------------------------------
    # CollisionScheme interface
    # ------------------------------------------------------------------
    def setup(self, sim: "CgyroSimulation") -> None:
        """Register a member (cmat is built later, in :meth:`finalize`)."""
        if self._finalized:
            raise EnsembleValidationError(
                "cannot add members to a finalized shared-cmat ensemble"
            )
        # a member holds its scheme, so the scheme holds it by proxy: no
        # cycle keeps a dropped ensemble's windows, and so its store, alive
        self.members.append(weakref.proxy(sim))

    def step(self, sim: "CgyroSimulation") -> None:
        raise EnsembleValidationError(
            "a shared-cmat member cannot advance its coll phase alone; "
            "drive the ensemble through XgyroEnsemble.step()"
        )

    def cmat_bytes_per_rank(self, sim: "CgyroSimulation") -> int:
        """Worst-case per-rank cmat bytes (the planning ceiling)."""
        if self.nc_counts is not None:
            counts: Sequence[int] = self.nc_counts
        else:
            counts = ensemble_nc_counts(sim.decomp, len(self.members))
        return cmat_block_bytes(sim.dims, max(counts), sim.decomp.nt_loc)

    # ------------------------------------------------------------------
    # ensemble wiring
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Validate members, build Figure-3 comms and the shared cmat."""
        if self._finalized:
            raise EnsembleValidationError("ensemble already finalized")
        if not self.members:
            raise EnsembleValidationError("no members registered")
        first = self.members[0]
        for m in self.members[1:]:
            if m.world is not first.world:
                raise EnsembleValidationError(
                    "all ensemble members must share one virtual world"
                )
            if m.decomp != first.decomp:
                raise EnsembleValidationError(
                    "all ensemble members must use identical decompositions "
                    f"({m.label}: {m.decomp.describe()} vs "
                    f"{first.label}: {first.decomp.describe()})"
                )
        from repro.xgyro.validate import validate_shareable

        validate_shareable([m.inp for m in self.members])

        world = self._world = first.world  # the shards' machine, member or not
        decomp = first.decomp
        k = len(self.members)
        if self.nc_counts is not None:
            counts = self.nc_counts
            group = k * decomp.n_proc_1
            if len(counts) != group:
                raise EnsembleValidationError(
                    f"nc_counts must have one entry per coll-comm rank "
                    f"({group}), got {len(counts)}"
                )
            if any(c < 1 for c in counts):
                raise EnsembleValidationError(
                    f"nc_counts entries must be >= 1, got {counts}"
                )
            if sum(counts) != first.dims.nc:
                raise EnsembleValidationError(
                    f"nc_counts must sum to nc={first.dims.nc}, "
                    f"got sum {sum(counts)}"
                )
        else:
            counts = ensemble_nc_counts(decomp, k)
        member_ranks = [m.ranks for m in self.members]
        self._prop = CmatPropagator(first.collision_operator, dt=first.inp.delta_t)
        dims = first.dims
        for i2 in range(decomp.n_proc_2):
            ranks = ensemble_coll_ranks(member_ranks, decomp, i2)
            # balanced contiguous ownership in comm-rank order
            shards: List[CollShard] = []
            lo = 0
            for j, world_rank in enumerate(ranks):
                shards.append(
                    CollShard(world_rank, tuple(range(lo, lo + counts[j])))
                )
                lo += counts[j]
            self._shards[i2] = shards
            self._coll_comm[i2] = Communicator(
                world, ranks, label=f"xgyro.coll.g{i2}"
            )
            # build each rank's slice of the single shared tensor
            n_idx = range(*decomp.nt_slice(i2).indices(dims.nt))
            for shard in shards:
                r = shard.world_rank
                world.ledgers[r].alloc(
                    "cmat", cmat_block_bytes(dims, shard.n_ic, decomp.nt_loc)
                )
                self._cmat[r] = self._prop.build(shard.ic_indices, n_idx)
                self._checksums[r] = self._checksum(self._cmat[r])
                if self.charge_build:
                    world.charge_compute(
                        r,
                        flops=self._prop.build_flops(shard.n_ic, len(n_idx)),
                        category="cmat_build",
                    )
        self._finalized = True

    @property
    def coll_comms(self) -> Dict[int, Communicator]:
        """Ensemble coll communicators per toroidal group (Figure 3)."""
        return dict(self._coll_comm)

    @property
    def shards(self) -> Dict[int, Tuple[CollShard, ...]]:
        """Current shard map per toroidal group (comm order)."""
        return {i2: tuple(s) for i2, s in self._shards.items()}

    def shard_of(self, world_rank: int) -> "CollShard | None":
        """The shard owned by ``world_rank`` (None when it owns none)."""
        for shards in self._shards.values():
            for s in shards:
                if s.world_rank == world_rank:
                    return s
        return None

    # ------------------------------------------------------------------
    # SDC guards: per-shard content checksums
    # ------------------------------------------------------------------
    @staticmethod
    def _checksum(shard: CmatWindow) -> str:
        """Content hash of one shard: its index, then every block its
        tiles read, in place (a block shared by rows of a tile once)."""
        import hashlib

        digest = hashlib.sha256(shard.keys.tobytes() + shard.modes.tobytes())
        for _, _, view in shard.tiles:
            for row in view:
                for block in row:
                    digest.update(block)
        return digest.hexdigest()

    def shard_nbytes(self, world_rank: int) -> int:
        """Bytes held by ``world_rank``'s shard (0 if it owns none)."""
        arr = self._cmat.get(world_rank)
        return 0 if arr is None else int(arr.nbytes)

    def verify_shards(
        self, ranks: "Sequence[int] | None" = None
    ) -> Tuple[int, ...]:
        """Re-hash shards and return the ranks whose contents diverged
        from the checksum recorded at assembly — silent corruption.

        Verification itself is free on the simulated clocks; callers
        model the scan cost (memory-bandwidth-bound) explicitly so the
        overhead is visible in reports rather than buried here.
        """
        check = self._cmat.keys() if ranks is None else ranks
        bad = []
        for r in check:
            arr = self._cmat.get(r)
            if arr is None:
                continue
            if self._checksum(arr) != self._checksums.get(r):
                bad.append(int(r))
        return tuple(sorted(bad))

    def repair_shard(self, world_rank: int, *, category: str = "sdc_repair") -> int:
        """Recompute ``world_rank``'s shard from the propagator.

        The constant tensor is a pure function of the shared inputs, so
        a corrupted shard needs no peer data to heal — just the same
        per-block inversions :meth:`finalize` did, charged to the
        owner's clock under ``category``.  Returns the number of
        (ic, n) blocks rebuilt.
        """
        shard = self.shard_of(world_rank)
        if shard is None or self._prop is None:
            raise RecoveryFailed(
                f"rank {world_rank} owns no shard to repair",
                reason="no shard",
            )
        n_idx = self._cmat[world_rank].modes  # the same request as at assembly
        self._cmat[world_rank] = self._prop.build(shard.ic_indices, n_idx)
        self._checksums[world_rank] = self._checksum(self._cmat[world_rank])
        self._world.charge_compute(
            world_rank,
            flops=self._prop.build_flops(shard.n_ic, len(n_idx)),
            category=category,
        )
        return shard.n_ic * len(n_idx)

    def corrupt_shard(self, world_rank: int, *, seed: int = 0) -> None:
        """Flip one bit of ``world_rank``'s shard (fault injection:
        models a radiation upset in the long-lived tensor).

        The flipped (word, bit) position is derived deterministically
        from ``(world_rank, seed)`` so faulted runs stay reproducible.
        The recorded checksum is *not* updated — that is the point.

        The upset hits this rank's memory only: the struck row stops
        reading the host store every simulation of the signature shares
        and reads a private copy of its blocks, until
        :meth:`repair_shard`.
        """
        import hashlib

        arr = self._cmat.get(world_rank)
        if arr is None:
            raise EnsembleValidationError(
                f"rank {world_rank} owns no shard to corrupt"
            )
        digest = hashlib.sha256(f"{world_rank}:{seed}".encode()).digest()
        words = arr.nbytes // 8  # of the modeled dense (n_ic, n_modes, nv, nv) shard
        pos = int.from_bytes(digest[:8], "big") % words
        bit = digest[8] % 64
        row, word = divmod(pos, words // arr.shape[0])
        struck = np.array(arr[row : row + 1])
        struck.view(np.uint64).flat[word] ^= np.uint64(1) << np.uint64(bit)
        self._cmat[world_rank] = arr.with_row(row, struck)

    # ------------------------------------------------------------------
    # the ensemble coll phase
    # ------------------------------------------------------------------
    def ensemble_collision_step(self) -> None:
        """Advance every member's coll phase through the shared tensor.

        Per toroidal group: forward AllToAll (STR blocks -> ensemble
        COLL distribution), reassemble each member's full-nv block and
        apply the shared propagator to all k at once, inverse AllToAll,
        rebuild the STR blocks in global nc order.  Each exchange is
        split into ``T`` sub-exchanges along the *configuration* axis —
        every destination shard's owned ic rows are chunked, so every
        rank sends ``1/T`` of its block per sub-exchange.

        The blocking schedule is ``T = 1`` with blocking AllToAlls.
        With ``overlap`` ``"coll"``/``"full"``, ``T`` is up to 4 and the
        sub-exchanges are nonblocking: all forwards are posted up front
        (nonblocking collectives on one communicator pipeline FIFO
        through the network engine), so only the head's window is
        exposed and the rest drain under the applies; each chunk's
        inverse posts as soon as its apply finishes and is waited only
        at scatter time, so all but the tail inverse window hide under
        later applies.  The propagator acts independently per (ic,
        toroidal-mode) block, so every ``T`` gives bit-identical
        physics.
        """
        if not self._finalized:
            raise EnsembleValidationError("finalize() the ensemble first")
        pipelined = self.overlap in ("coll", "full")
        first = self.members[0]
        world = first.world
        decomp = first.decomp
        dims = first.dims
        k = len(self.members)
        P1 = decomp.n_proc_1
        nt_loc = decomp.nt_loc

        for i2, comm in self._coll_comm.items():
            shards = self._shards[i2]
            T = min(4, min(s.n_ic for s in shards)) if pipelined else 1
            # per shard: chunk bounds in shard-local row order, plus the
            # matching global-ic indexer per chunk (a chunk is a sub-shard)
            bounds = [
                [(t * s.n_ic // T, (t + 1) * s.n_ic // T) for s in shards]
                for t in range(T)
            ]
            chunk_idx = [
                [
                    CollShard(s.world_rank, s.ic_indices[o0:o1]).index()
                    for s, (o0, o1) in zip(shards, bounds[t])
                ]
                for t in range(T)
            ]
            # the group's STR-side ranks, each with its owning member
            group = [
                (m, m.ranks[lr])
                for m in self.members
                for lr in decomp.group_ranks(i2)
            ]

            def exchange(send):
                """Run (blocking) or post (pipelined) one AllToAll;
                returns the zero-argument wait yielding its recv rows."""
                with world.phase("coll_comm"):
                    if pipelined:
                        return comm.ialltoall(send).wait
                    recv = comm.alltoall(send)
                    return lambda: recv

            def post_fwd(t):
                return exchange(
                    {
                        r: [m.h[r][idx, :, :] for idx in chunk_idx[t]]
                        for m, r in group
                    }
                )

            def apply_chunk(t, recv):
                # the k members' full-nv blocks side by side, (n_ic, k,
                # nv, nt_loc), under one apply of the shared propagator
                applied_t = {
                    r: apply_propagator(
                        self._cmat[r][o0:o1],
                        np.concatenate(recv[r], axis=1).reshape(o1 - o0, k, dims.nv, nt_loc),
                    )
                    for r, (o0, o1) in zip(comm.ranks, bounds[t])
                }
                world.charge_compute(
                    comm.ranks,
                    flops={
                        s.world_rank: k
                        * apply_flops(o1 - o0, nt_loc, dims.nv)
                        for s, (o0, o1) in zip(shards, bounds[t])
                    },
                    category="coll_compute",
                )
                return applied_t

            def post_back(applied_t):
                # slice each member's updated block back per source
                return exchange(
                    {
                        r: [
                            applied_t[r][:, mi, decomp.nv_slice(i1)]
                            for mi in range(k)
                            for i1 in range(P1)
                        ]
                        for r in comm.ranks
                    }
                )

            fwd_waits = [post_fwd(t) for t in range(T)]
            back_waits = [
                post_back(apply_chunk(t, fwd_waits[t]())) for t in range(T)
            ]
            # each destination collects its nc pieces from all group
            # ranks into its STR block (a view of the member's array; by
            # now every apply has copied what the forwards sent of it)
            for t in range(T):
                back = back_waits[t]()
                for m, r in group:
                    for j, idx in enumerate(chunk_idx[t]):
                        m.h[r][idx, :, :] = back[r][j]

    # ------------------------------------------------------------------
    # shrink-and-recover
    # ------------------------------------------------------------------
    def recover_after_loss(
        self,
        surviving_members: Sequence["CgyroSimulation"],
        removed_ranks: Set[int],
        *,
        category: str = "recovery_build",
    ) -> int:
        """Rebuild the Figure-3 partition over the survivors.

        ``removed_ranks`` are every rank leaving the job — the dead
        ones plus any live rank of a member being dropped.  Survivors
        keep the propagator blocks they already hold; the removed
        ranks' configuration indices are adopted round-robin (in comm
        order) and **only those blocks are recomputed**, each adopter
        charged the rebuild flops under ``category``.  Blocks held by a
        dropped member's live ranks are recomputed rather than
        migrated — the accounting ledger reports that price honestly.

        Returns the total number of (ic, n) propagator blocks rebuilt.
        """
        if not self._finalized:
            raise EnsembleValidationError("finalize() the ensemble first")
        if not surviving_members:
            raise RecoveryFailed(
                "cannot rebuild a shared-cmat partition with no survivors",
                reason="no surviving members",
            )
        first = surviving_members[0]
        world = first.world
        decomp = first.decomp
        dims = first.dims
        assert self._prop is not None
        self._generation += 1
        rebuilt_blocks = 0
        for i2 in list(self._shards):
            old = self._shards[i2]
            keep = [s for s in old if s.world_rank not in removed_ranks]
            lost = [s for s in old if s.world_rank in removed_ranks]
            if not keep:
                raise RecoveryFailed(
                    f"every shard owner of toroidal group {i2} was removed",
                    reason="whole coll group lost",
                )
            # SDC guard: never adopt onto silently-corrupted survivors —
            # re-verify their shards first, healing any bad one in place
            for bad_rank in self.verify_shards([s.world_rank for s in keep]):
                rebuilt_blocks += self.repair_shard(bad_rank, category=category)
            # adopt lost indices round-robin over the survivors
            adopted: Dict[int, List[int]] = {s.world_rank: [] for s in keep}
            for pos, shard in enumerate(lost):
                adopter = keep[pos % len(keep)]
                adopted[adopter.world_rank].extend(shard.ic_indices)
            n_idx = range(*decomp.nt_slice(i2).indices(dims.nt))
            new_shards: List[CollShard] = []
            for s in keep:
                extra = sorted(adopted[s.world_rank])
                if not extra:
                    new_shards.append(s)
                    continue
                r = s.world_rank
                fresh = self._prop.build(extra, n_idx)
                world.charge_compute(
                    r,
                    flops=self._prop.build_flops(len(extra), len(n_idx)),
                    category=category,
                )
                rebuilt_blocks += len(extra) * len(n_idx)
                # old + adopted rows in ascending ic order: the blocks
                # stay where they are, only the keys are merged
                ics = np.array(s.ic_indices + tuple(extra))
                order = np.argsort(ics)
                merged_ics = tuple(ics[order].tolist())
                self._cmat[r] = merged = self._cmat[r].joined(fresh, order)
                self._checksums[r] = self._checksum(merged)
                ledger = world.ledgers[r]
                ledger.free("cmat")
                ledger.alloc(
                    "cmat", cmat_block_bytes(dims, len(merged_ics), decomp.nt_loc)
                )
                new_shards.append(CollShard(r, merged_ics))
            for s in lost:
                self._cmat.pop(s.world_rank, None)
                self._checksums.pop(s.world_rank, None)
                ledger = world.ledgers[s.world_rank]
                if "cmat" in ledger:
                    ledger.free("cmat")
            self._shards[i2] = new_shards
            self._coll_comm[i2] = Communicator(
                world,
                [s.world_rank for s in new_shards],
                label=f"xgyro.coll.g{i2}.r{self._generation}",
            )
        self.members = [weakref.proxy(m) for m in surviving_members]
        return rebuilt_blocks
