"""The cross-job cmat cache.

Within one XGYRO job the paper shares the collisional tensor across k
members; *between* jobs of a campaign the same logic applies in time:
a job whose :class:`~repro.collision.signature.CmatSignature` matches a
tensor the machine already assembled can skip re-assembly entirely.
:class:`CmatCache` is that reuse made explicit — a content-addressed
map from signature hash to an assembled-tensor record, with
hit/miss/eviction accounting in simulated seconds saved.

The cache stores *accounting records*, not arrays: the virtual
machine's tensors are rebuilt numerically either way (they are needed
for the physics), but a hit instructs the dispatcher to run the job
with ``charge_cmat_build=False`` so the assembly cost never touches
the simulated clocks — exactly the effect of tensor residency on a
real machine.  A hit saves time, never memory: every job still
registers its cmat bytes in the per-rank ledgers.

A resident tensor is also a long-lived SDC target: every record
carries a checksum, :meth:`CmatCache.lookup` re-verifies it before
serving, and a corrupted record is *never* served — it counts as a
miss, is evicted on the spot, and bumps the ``integrity_failures``
stat, so the dispatching job falls back to a (clean) rebuild.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CampaignError
from repro.collision.signature import CmatSignature


@dataclass
class CacheEntry:
    """One resident tensor: content address, size, and assembly bill.

    ``checksum`` guards the record itself (the stand-in for the
    resident tensor's bytes); it is computed at insert time and
    re-verified on every lookup.
    """

    key: str
    nbytes: int
    build_s: float
    hits: int = field(default=0, init=False)
    checksum: str = field(default="", init=False, repr=False)

    def content_checksum(self) -> str:
        """Checksum over the fields that model the tensor's content."""
        return hashlib.sha256(
            f"{self.key}:{self.nbytes}:{self.build_s!r}".encode()
        ).hexdigest()


class CmatCache:
    """Content-addressed cache of assembled collisional tensors; every
    tensor stays resident (the only evictions are corrupted records)."""

    def __init__(self) -> None:
        self._entries: Dict[str, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.integrity_failures = 0
        self.seconds_saved = 0.0

    # ------------------------------------------------------------------
    @property
    def in_use_bytes(self) -> int:
        """Bytes of tensor currently resident."""
        return sum(e.nbytes for e in self._entries.values())

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    def lookup(self, signature: CmatSignature) -> Optional[CacheEntry]:
        """Probe for ``signature``'s tensor; records the hit or miss.

        On a hit the entry's assembly bill is added to
        :attr:`seconds_saved` — the simulated seconds the job skips by
        reusing the resident tensor.

        The entry's checksum is re-verified first: a corrupted record
        is evicted, counted under :attr:`integrity_failures`, and
        reported as a miss — a poisoned tensor must never be served.
        """
        key = signature.content_hash()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.content_checksum() != entry.checksum:
            del self._entries[key]
            self.evictions += 1
            self.integrity_failures += 1
            self.misses += 1
            return None
        entry.hits += 1
        self.hits += 1
        self.seconds_saved += entry.build_s
        return entry

    def insert(
        self, signature: CmatSignature, nbytes: int, build_s: float
    ) -> CacheEntry:
        """Record a freshly assembled tensor.  Re-inserting an existing
        key refreshes its record (sizes can change when a recovery
        rebalanced shards)."""
        if nbytes < 0:
            raise CampaignError(f"nbytes must be >= 0, got {nbytes}")
        if build_s < 0:
            raise CampaignError(f"build_s must be >= 0, got {build_s}")
        key = signature.content_hash()
        entry = CacheEntry(key=key, nbytes=int(nbytes), build_s=float(build_s))
        entry.checksum = entry.content_checksum()
        self._entries[key] = entry
        return entry

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Accounting snapshot for reports.

        Keys (all present even before the first lookup, when
        ``hit_rate`` is defined as 0.0):

        - ``entries`` — resident records;
        - ``in_use_bytes`` — bytes of resident tensor;
        - ``hits`` / ``misses`` — lookup outcomes (an integrity
          failure counts as a miss);
        - ``evictions`` — records dropped (integrity evictions);
        - ``integrity_failures`` — corrupted records caught and
          evicted by lookup verification;
        - ``hit_rate`` — ``hits / (hits + misses)``, 0.0 at zero
          lookups;
        - ``seconds_saved`` — simulated assembly seconds skipped by
          hits.
        """
        return {
            "entries": len(self._entries),
            "in_use_bytes": self.in_use_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "integrity_failures": self.integrity_failures,
            "hit_rate": self.hit_rate,
            "seconds_saved": self.seconds_saved,
        }
