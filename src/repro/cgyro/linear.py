"""Linear (initial-value eigenmode) solver mode.

Gyrokinetic codes are routinely run in *linear* mode to extract the
growth rate gamma and real frequency omega of each toroidal mode —
the quantities physics papers quote and parameter scans map out.  With
the nonlinear bracket disabled, one full time step of this solver
(RK4 streaming with its field solves + the implicit collision
propagator) is an exactly linear map ``h -> M_n h`` per toroidal mode
``n``; the dominant eigenvalue ``lambda`` of ``M_n`` gives

    gamma = ln|lambda| / dt,        omega = -arg(lambda) / dt .

Two extraction methods are provided: deterministic power iteration on
the matrix-free step map, and implicitly-restarted Arnoldi
(``scipy.sparse.linalg.eigs``) on the same operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.errors import InputError
from repro.cgyro.fields import FieldSolver
from repro.cgyro.params import CgyroInput
from repro.cgyro.streaming import StreamingOperator
from repro.collision.cmat import CmatPropagator, apply_propagator
from repro.collision.operator import CollisionOperator
from repro.grid.config_space import ConfigGrid
from repro.grid.velocity import VelocityGrid

if TYPE_CHECKING:  # pragma: no cover - imported where it is called
    from scipy.sparse.linalg import LinearOperator


@dataclass(frozen=True)
class ModeResult:
    """Linear result for one toroidal mode."""

    n_mode: int
    gamma: float
    omega: float
    eigenvalue: complex
    iterations: int

    @property
    def unstable(self) -> bool:
        """Whether the mode grows (gamma > 0)."""
        return self.gamma > 0.0


class LinearSolver:
    """Per-toroidal-mode linear analysis of the full step map."""

    def __init__(self, inp: CgyroInput) -> None:
        if inp.nonlinear:
            raise InputError(
                "linear analysis requires nonlinear=False (the step map "
                "must be linear)"
            )
        self.inp = inp
        self.dims = inp.grid_dims()
        self.vgrid = VelocityGrid.build(self.dims)
        self.cgrid = ConfigGrid.build(self.dims, box_length=inp.box_length)
        self.fields = FieldSolver(inp, self.dims, self.vgrid)
        self.streaming = StreamingOperator(inp, self.dims, self.vgrid, self.cgrid)
        operator = CollisionOperator(
            self.dims, self.vgrid, self.cgrid, inp.collision_params()
        )
        self._propagator = CmatPropagator(operator, dt=inp.delta_t)

    # ------------------------------------------------------------------
    # the per-mode step map
    # ------------------------------------------------------------------
    def _rhs_mode(self, h: np.ndarray, n_mode: int) -> np.ndarray:
        """Streaming RHS restricted to one toroidal mode.

        ``h`` has shape ``(nc, nv, 1)``.
        """
        iv_idx = range(self.dims.nv)
        moments = self.fields.partial_moments(h, iv_idx, [n_mode])
        f = self.fields.assemble(moments, [n_mode])
        return self.streaming.rhs(
            h, f.phi, f.psi_u, iv_idx, [n_mode], apar=f.apar
        )

    def step_mode(self, h: np.ndarray, n_mode: int) -> np.ndarray:
        """One full (streaming RK4 + collision) step of mode ``n``."""
        if h.shape != (self.dims.nc, self.dims.nv, 1):
            raise InputError(
                f"mode state must have shape ({self.dims.nc}, {self.dims.nv}, 1)"
            )
        if not 0 <= n_mode < self.dims.nt:
            raise InputError(f"mode {n_mode} out of range [0, {self.dims.nt})")
        dt = self.inp.delta_t
        k1 = self._rhs_mode(h, n_mode)
        k2 = self._rhs_mode(h + 0.5 * dt * k1, n_mode)
        k3 = self._rhs_mode(h + 0.5 * dt * k2, n_mode)
        k4 = self._rhs_mode(h + dt * k3, n_mode)
        out = h + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        cmat = self._propagator.build(range(self.dims.nc), [n_mode])
        return apply_propagator(cmat, out)

    def step_operator(self, n_mode: int) -> LinearOperator:
        """The mode-``n`` step map as a scipy LinearOperator."""
        from scipy.sparse.linalg import LinearOperator  # only linear mode loads it
        size = self.dims.nc * self.dims.nv
        shape3 = (self.dims.nc, self.dims.nv, 1)

        def matvec(v: np.ndarray) -> np.ndarray:
            h = np.asarray(v, dtype=np.complex128).reshape(shape3)
            return self.step_mode(h, n_mode).ravel()

        return LinearOperator((size, size), matvec=matvec, dtype=np.complex128)

    # ------------------------------------------------------------------
    # eigenvalue extraction
    # ------------------------------------------------------------------
    def _result(self, n_mode: int, lam: complex, iterations: int) -> ModeResult:
        dt = self.inp.delta_t
        gamma = float(np.log(np.abs(lam)) / dt)
        omega = float(-np.angle(lam) / dt)
        return ModeResult(
            n_mode=n_mode,
            gamma=gamma,
            omega=omega,
            eigenvalue=complex(lam),
            iterations=iterations,
        )

    def growth_rate_power(
        self,
        n_mode: int,
        *,
        tol: float = 1e-6,
    ) -> ModeResult:
        """Dominant-eigenvalue *estimate* by deterministic power iteration.

        The physical operator has an exact theta-parity symmetry
        (``k_r <-> -k_r``), so its dominant eigenvalue is typically a
        degenerate pair with further eigenvalues clustered close by;
        power iteration converges on the modulus (which is what gamma
        needs) but only slowly through the cluster.  Use it as a cheap
        estimator; :meth:`growth_rate_arnoldi` (the default) resolves
        the cluster properly.
        """
        rng = np.random.default_rng(0)
        shape = (self.dims.nc, self.dims.nv, 1)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v /= np.linalg.norm(v)
        modulus_old = 0.0
        lam = 0.0 + 0.0j
        for it in range(1, 3001):
            w = self.step_mode(v, n_mode)
            lam = np.vdot(v, w)  # Rayleigh quotient, carries the phase
            modulus = float(np.linalg.norm(w))  # growth factor -> |lambda|
            if modulus == 0.0:
                return self._result(n_mode, 0.0, it)
            v = w / modulus
            # converge on the modulus: it is well-defined even when the
            # dominant eigenvalue is (near-)degenerate, where the
            # Rayleigh quotient keeps rotating within the subspace
            if abs(modulus - modulus_old) <= tol * modulus and it > 1:
                lam = modulus * np.exp(1j * np.angle(lam))
                return self._result(n_mode, lam, it)
            modulus_old = modulus
        raise InputError(
            f"power iteration did not converge for mode {n_mode} in "
            "3000 iterations; try method='arnoldi'"
        )

    def growth_rate_arnoldi(
        self, n_mode: int, *, tol: float = 1e-8
    ) -> ModeResult:
        """Dominant eigenvalue by implicitly-restarted Arnoldi.

        The theta-parity symmetry makes the dominant eigenvalue a
        degenerate pair, which ARPACK cannot converge with ``k=1``; a
        small cluster is requested and the largest modulus returned.
        """
        from scipy.sparse.linalg import eigs  # only linear mode loads it
        rng = np.random.default_rng(0)
        size = self.dims.nc * self.dims.nv
        v0 = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        k = min(6, size - 2)
        vals = eigs(
            self.step_operator(n_mode),
            k=k,
            ncv=min(size, max(4 * k, 20)),
            which="LM",
            v0=v0,
            tol=tol,
            return_eigenvectors=False,
        )
        lam = vals[np.argmax(np.abs(vals))]
        return self._result(n_mode, lam, 0)

    def growth_rate(
        self, n_mode: int, *, method: str = "arnoldi", tol: float = 1e-8
    ) -> ModeResult:
        """Dominant-mode growth rate by the chosen method."""
        if method == "power":
            return self.growth_rate_power(n_mode, tol=tol)
        if method == "arnoldi":
            return self.growth_rate_arnoldi(n_mode, tol=tol)
        raise InputError(f"unknown method {method!r}; use 'power' or 'arnoldi'")

    def spectrum(
        self,
        *,
        modes: Optional[List[int]] = None,
        method: str = "arnoldi",
        tol: float = 1e-8,
    ) -> List[ModeResult]:
        """Growth rates of the requested modes (default: all n > 0).

        Mode 0 is excluded by default: without a drive it is neutrally
        stable and its eigenvalue cluster slows power iteration.
        """
        if modes is None:
            modes = list(range(1, self.dims.nt))
        return [self.growth_rate(n, method=method, tol=tol) for n in modes]
