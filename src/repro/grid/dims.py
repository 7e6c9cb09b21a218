"""Phase-space dimensions.

:class:`GridDims` carries the six resolution parameters and exposes the
three collapsed tensor dimensions the paper reasons in terms of:
``nc`` (configuration), ``nv`` (velocity) and ``nt`` (toroidal).  Index
(un)flattening helpers define the canonical orderings used everywhere:

- ``ic = ir * n_theta + it``             (radial-major),
- ``iv = (is * n_energy + ie) * n_xi + ix``  (species-major),
- ``n``  in ``[0, nt)``                  (toroidal mode index).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InputError


@dataclass(frozen=True)
class GridDims:
    """Resolution of the five phase-space coordinates plus species.

    Parameters
    ----------
    n_radial, n_theta:
        Configuration-space resolution; ``nc = n_radial * n_theta``.
    n_energy, n_xi, n_species:
        Velocity-space resolution; ``nv = n_energy * n_xi * n_species``.
    n_toroidal:
        Number of toroidal modes; ``nt = n_toroidal``.
    """

    n_radial: int
    n_theta: int
    n_energy: int
    n_xi: int
    n_species: int
    n_toroidal: int

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise InputError(f"{name} must be a positive integer, got {value!r}")

    # ------------------------------------------------------------------
    # collapsed dimensions
    # ------------------------------------------------------------------
    @property
    def nc(self) -> int:
        """Configuration dimension: ``n_radial * n_theta``."""
        return self.n_radial * self.n_theta

    @property
    def nv(self) -> int:
        """Velocity dimension: ``n_energy * n_xi * n_species``."""
        return self.n_energy * self.n_xi * self.n_species

    @property
    def nt(self) -> int:
        """Toroidal dimension: ``n_toroidal``."""
        return self.n_toroidal

    def describe(self) -> str:
        """Compact human-readable summary."""
        return (
            f"nc={self.nc} ({self.n_radial}r x {self.n_theta}th), "
            f"nv={self.nv} ({self.n_species}s x {self.n_energy}e x {self.n_xi}xi), "
            f"nt={self.nt}"
        )
