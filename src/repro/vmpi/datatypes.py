"""The operand of a virtual-MPI reduction, and the reduction itself."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import CollectiveError


class RankStacked(Mapping):
    """The members' operands of one reduction, held as one array.

    ``array`` has shape ``(len(ranks), ...)`` and row ``i`` is the
    contribution of world rank ``ranks[i]``; read as a mapping it is
    ``{ranks[i]: array[i]}``, the rows being views.  ``array`` is
    typically itself a strided view of a larger array (one moment of
    one toroidal group out of a simulation-wide block): handing it to
    :meth:`~repro.vmpi.communicator.Communicator.allreduce` reduces it
    in place, with no per-rank Python objects in between.

    The rank axis should be the slowest-varying one, as it is in any
    basic slice of a C-ordered array whose first axis is the rank: that
    is the layout ``np.stack`` gives a plain ``{rank: array}`` operand
    and hence the one :func:`reduce_ranks`' fold order is stated for.
    """

    __slots__ = ("ranks", "array")

    def __init__(self, ranks: Sequence[int], array: np.ndarray) -> None:
        self.ranks: Tuple[int, ...] = tuple(ranks)
        array = np.asarray(array)
        if array.ndim == 0 or array.shape[0] != len(self.ranks):
            raise CollectiveError(
                f"rank-stacked operand of shape {array.shape} does not have "
                f"one row per rank of {self.ranks}"
            )
        self.array = array

    def __getitem__(self, world_rank: int) -> np.ndarray:
        try:
            return self.array[self.ranks.index(world_rank)]
        except ValueError:
            raise KeyError(world_rank) from None

    def __iter__(self) -> Iterator[int]:
        return iter(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)


def reduce_ranks(stacked: np.ndarray) -> np.ndarray:
    """Sum axis 0 — the rank axis — of a ``(size, ...)`` array: the one
    reduction every AllReduce runs.

    This is NumPy's axis-0 reduction: deterministic, in NumPy's order.
    With the rank axis slowest-varying and more than one element per
    rank, every element is folded left to right over the ranks,
    ``((a0 + a1) + a2) + ...``; a stack of scalars (or of one-element
    arrays) is a 1-d reduction, which NumPy runs through its unrolled
    pairwise inner loop — *not* a left fold.  Neither depends on the
    strides of ``stacked``: reducing a strided view equals reducing a
    stack of contiguous copies bit for bit
    (``tests/test_vmpi_collectives.py`` pins that over group sizes 1-16,
    and that the rank order does matter).
    """
    return stacked.sum(axis=0)
