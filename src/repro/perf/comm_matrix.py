"""Rank-to-rank communication-volume analysis.

Builds, from an executed trace, the matrix of bytes exchanged between
every pair of world ranks — the artefact network engineers use to
reason about locality — by attributing each collective's traffic to
the pairwise transfers its algorithm performs:

- ``alltoall``: every participant sends ``nbytes / p`` to every other
  participant (the personalised exchange's uniform approximation);
- ``allreduce`` (ring): every participant sends ``2 nbytes (p-1)/p``
  to its ring successor.

Those are the two collectives the model issues
(:data:`~repro.check.checker.KNOWN_KINDS`); any other kind, like a rank
outside ``[0, n_ranks)`` or an event without participants, is a
:class:`~repro.errors.VmpiError`.

From the matrix, :func:`locality_report` splits traffic into
intra-node vs inter-node bytes — quantifying the placement effect the
Figure-3 design relies on (XGYRO's per-member collectives stay inside
nodes; only the ensemble-wide coll exchange crosses them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import VmpiError
from repro.machine.placement import Placement
from repro.vmpi.tracer import TraceLog


def communication_matrix(trace: TraceLog, n_ranks: int) -> np.ndarray:
    """Bytes sent from rank i to rank j, shape ``(n_ranks, n_ranks)``.

    Traffic attribution follows each collective's algorithm (see the
    module docstring); self-traffic is never counted.
    """
    if n_ranks < 1:
        raise VmpiError(f"n_ranks must be >= 1, got {n_ranks}")
    mat = np.zeros((n_ranks, n_ranks))
    for ev in trace:
        ranks = ev.ranks
        p = len(ranks)
        if not ranks:
            raise VmpiError(f"trace event {ev.seq} has no participants")
        if not 0 <= min(ranks) <= max(ranks) < n_ranks:
            raise VmpiError(
                f"trace event {ev.seq} involves ranks {list(ranks)} outside "
                f"[0, {n_ranks})"
            )
        if ev.kind not in ("allreduce", "alltoall"):
            raise VmpiError(f"trace event {ev.seq}: unknown collective kind {ev.kind!r}")
        if p < 2 or ev.nbytes == 0:
            continue
        if ev.kind == "alltoall":
            share = ev.nbytes / p
            for i in ranks:
                for j in ranks:
                    if i != j:
                        mat[i, j] += share
        else:
            # ring: each rank streams to its successor
            volume = 2.0 * ev.nbytes * (p - 1) / p
            for idx, i in enumerate(ranks):
                mat[i, ranks[(idx + 1) % p]] += volume
    return mat


@dataclass(frozen=True)
class LocalityReport:
    """Split of communication volume by node locality."""

    intra_node_bytes: float
    inter_node_bytes: float

    @property
    def total_bytes(self) -> float:
        """All attributed traffic."""
        return self.intra_node_bytes + self.inter_node_bytes

    @property
    def inter_fraction(self) -> float:
        """Share of traffic crossing node boundaries."""
        return self.inter_node_bytes / self.total_bytes if self.total_bytes else 0.0

    def render(self) -> str:
        return (
            f"traffic: {self.total_bytes:.3e} B total, "
            f"{self.intra_node_bytes:.3e} intra-node, "
            f"{self.inter_node_bytes:.3e} inter-node "
            f"({self.inter_fraction:.1%} crossing nodes)"
        )


def locality_report(matrix: np.ndarray, placement: Placement) -> LocalityReport:
    """Split a communication matrix by the placement's node boundaries."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise VmpiError(f"matrix must be square, got {matrix.shape}")
    if placement.n_ranks < n:
        raise VmpiError(
            f"placement covers {placement.n_ranks} ranks, matrix has {n}"
        )
    nodes = np.array([placement.node_of(r) for r in range(n)])
    same = nodes[:, None] == nodes[None, :]
    intra = float(matrix[same].sum())
    inter = float(matrix[~same].sum())
    return LocalityReport(intra_node_bytes=intra, inter_node_bytes=inter)
