"""Per-rank memory accounting.

Each virtual rank owns a :class:`MemoryLedger`.  Subsystems register
named allocations (``cmat``, ``h``, ``rk_stage``, ...) so that memory
breakdowns — such as the paper's "cmat is 10x the size of all the other
buffers combined" — can be measured rather than asserted.  Exceeding the
ledger's capacity raises :class:`repro.errors.MemoryLimitExceeded`,
which is how "a single CGYRO simulation does require at least 32 nodes"
manifests in the reproduction.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import LedgerError, MemoryLimitExceeded


class MemoryLedger:
    """Tracks named allocations against a byte budget.

    Parameters
    ----------
    limit_bytes:
        Capacity; ``None`` or ``math.inf`` disables enforcement while
        still tracking usage.
    rank:
        Optional world-rank tag, used only in error messages.
    """

    def __init__(self, limit_bytes: "float | None" = None, *, rank: "int | None" = None) -> None:
        if limit_bytes is not None and limit_bytes < 0:
            raise LedgerError(f"limit_bytes must be >= 0, got {limit_bytes}")
        self._limit = math.inf if limit_bytes is None else float(limit_bytes)
        self._rank = rank
        self._live: Dict[str, int] = {}
        self._in_use = 0
        self._peak = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def in_use_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._in_use

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`in_use_bytes`."""
        return self._peak

    def size_of(self, name: str) -> int:
        """Bytes held by allocation ``name`` (0 if absent)."""
        return self._live.get(name, 0)

    def breakdown(self) -> Dict[str, int]:
        """Copy of the live-allocation map (name -> bytes)."""
        return dict(self._live)

    def __contains__(self, name: str) -> bool:
        return name in self._live

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def alloc(self, name: str, nbytes: "int | float") -> None:
        """Register allocation ``name`` of ``nbytes`` bytes.

        Raises
        ------
        LedgerError
            If ``name`` is already live or ``nbytes`` is negative.
        MemoryLimitExceeded
            If the allocation would exceed the capacity.  The ledger is
            left unchanged in that case.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise LedgerError(f"allocation size must be >= 0, got {nbytes}")
        if name in self._live:
            raise LedgerError(f"allocation {name!r} is already live; free it first")
        if self._in_use + nbytes > self._limit:
            rank_tag = "" if self._rank is None else f" on rank {self._rank}"
            raise MemoryLimitExceeded(
                f"allocating {nbytes} B for {name!r}{rank_tag} exceeds the "
                f"{self._limit:.0f} B budget ({self._in_use} B already in use)",
                rank=self._rank,
                requested_bytes=nbytes,
                in_use_bytes=self._in_use,
                limit_bytes=int(self._limit) if math.isfinite(self._limit) else 0,
                breakdown=self._live,
            )
        self._live[name] = nbytes
        self._in_use += nbytes
        self._peak = max(self._peak, self._in_use)

    def free(self, name: str) -> int:
        """Release allocation ``name``; returns the bytes freed."""
        try:
            nbytes = self._live.pop(name)
        except KeyError:
            raise KeyError(f"no live allocation named {name!r}") from None
        self._in_use -= nbytes
        return nbytes

    def would_fit(self, name: str, nbytes: "int | float") -> bool:
        """Whether ``alloc(name, nbytes)`` would succeed, without side
        effects — the capacity probe schedulers use instead of
        try/except control flow.

        Applies exactly the checks :meth:`alloc` applies: the size is
        coerced to int the same way, a live ``name`` cannot be
        re-allocated (returns False), and a negative size raises
        :class:`~repro.errors.LedgerError`.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise LedgerError(f"allocation size must be >= 0, got {nbytes}")
        if name in self._live:
            return False
        return self._in_use + nbytes <= self._limit

    def report(self) -> str:
        """Human-readable usage table, largest allocations first."""
        rows = sorted(self._live.items(), key=lambda kv: -kv[1])
        lines = [f"memory ledger (rank={self._rank}):"]
        for name, nbytes in rows:
            share = nbytes / self._in_use if self._in_use else 0.0
            lines.append(f"  {name:<24s} {nbytes:>14d} B  {share:6.1%}")
        limit = "inf" if math.isinf(self._limit) else f"{self._limit:.0f}"
        lines.append(f"  total in use {self._in_use} B, peak {self._peak} B, limit {limit} B")
        return "\n".join(lines)
