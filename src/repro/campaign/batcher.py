"""Grouping a request stream into candidate shared-cmat ensembles.

The inverse of :func:`~repro.xgyro.validate.validate_shareable`: instead
of checking a pre-formed ensemble, :class:`SignatureBatcher` *discovers*
the shareable partition of an arbitrary pending set via
:func:`~repro.xgyro.validate.group_by_signature` and emits one
:class:`CandidateBatch` per group.  A batch is a *candidate* XGYRO
ensemble: every member could share one cmat; whether they run as one
job, several, or co-scheduled with others is the
:class:`~repro.campaign.packer.CampaignPacker`'s decision.

Members of one XGYRO job must also agree on the reporting cadence
(:attr:`~repro.cgyro.params.CgyroInput.steps_per_report` — a run-control
knob deliberately *outside* the cmat signature), so a signature group is
further split by cadence.  Batches inherit the queue's serving order:
groups are ordered by their best-placed request, members stay in queue
order within a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.collision.signature import CmatSignature
from repro.errors import CampaignError
from repro.campaign.request import SimRequest
from repro.xgyro.validate import group_by_signature


@dataclass(frozen=True)
class CandidateBatch:
    """A maximal set of pending requests that may share one cmat."""

    signature: CmatSignature
    requests: Tuple[SimRequest, ...]

    @property
    def size(self) -> int:
        """Number of member requests."""
        return len(self.requests)

    @property
    def signature_key(self) -> str:
        """Content address of the shared tensor (cache key)."""
        return self.signature.content_hash()


class SignatureBatcher:
    """Groups pending requests into candidate ensembles by signature.

    Parameters
    ----------
    max_batch:
        Optional cap on members per batch; a larger group is emitted as
        several consecutive batches.  ``None`` (default) leaves any
        splitting to the packer's capacity logic.
    """

    def __init__(self, *, max_batch: "int | None" = None) -> None:
        if max_batch is not None and max_batch < 1:
            raise CampaignError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch

    def batch(self, requests: Sequence[SimRequest]) -> List[CandidateBatch]:
        """Partition ``requests`` (already in queue order) into batches.

        Guarantees, covered by property tests: every request lands in
        exactly one batch; a batch never mixes cmat signatures or
        reporting cadences; interleaved arrivals of one signature merge
        back into one batch; a lone unshareable request forms a size-1
        batch.
        """
        inputs = [r.input for r in requests]
        batches: List[CandidateBatch] = []
        for signature, indices in group_by_signature(inputs):
            by_cadence: Dict[int, List[SimRequest]] = {}
            for i in indices:
                cadence = inputs[i].steps_per_report
                by_cadence.setdefault(cadence, []).append(requests[i])
            for members in by_cadence.values():
                batches.extend(self._capped(signature, members))
        return batches

    def _capped(
        self, signature: CmatSignature, members: List[SimRequest]
    ) -> List[CandidateBatch]:
        cap = self.max_batch or len(members)
        return [
            CandidateBatch(signature, tuple(members[lo : lo + cap]))
            for lo in range(0, len(members), cap)
        ]
