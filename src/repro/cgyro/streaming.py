"""Streaming-phase right-hand side.

The str phase advances, per toroidal mode ``n`` and velocity point
``iv`` (species s, energy e, pitch xi):

    dh/dt = - vth_s vpar * d/dtheta [ h + (z_s/T_s) J phi ]      (parallel streaming)
            + c_up vth_s |vpar| * D2_theta h                     (upwind dissipation)
            - c_uf vth_s |vpar| J * D2_theta psi_u               (upwind field corr.)
            + i omega_star(iv, n) J phi                          (gradient drive)
            - i [ omega_d(ic, iv, n) + gamma_e n ] h             (drift + ExB shear)

with ``omega_star = (T_s/z_s) n k_theta_rho (dlnn_s + dlnt_s (e - 3/2))``
and the curvature drift
``omega_d = e [ c_d n k_theta_rho cos(theta) + c_r k_r sin(theta) ]``.
The theta derivative is why the str layout keeps nc complete;
everything else is pointwise.

The operator acts on arbitrary (iv, nt) index subsets so the serial
reference and every distributed rank run literally the same code; the
coefficient tables of each distinct subset are built once.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from repro.errors import InputError
from repro.cgyro.fields import PreparedSets, flr_table
from repro.cgyro.params import CgyroInput
from repro.grid.config_space import ConfigGrid
from repro.grid.dims import GridDims
from repro.grid.velocity import VelocityGrid

#: drift inputs + index set -> 1j * omega, while an operator holds it
_DRIFT: "weakref.WeakValueDictionary[tuple, np.ndarray]" = weakref.WeakValueDictionary()


class StreamingOperator:
    """Precomputed per-(iv, n) tables and the RHS evaluation."""

    def __init__(
        self,
        inp: CgyroInput,
        dims: GridDims,
        vgrid: VelocityGrid,
        cgrid: ConfigGrid,
    ) -> None:
        self.inp = inp
        self.dims = dims
        self.vgrid = vgrid
        self.cgrid = cgrid
        spec = vgrid.flat_species()
        self.vth = np.array([inp.species[s].vth for s in spec])  # (nv,)
        self.vpar = vgrid.flat_vpar()
        self.abs_vpar = np.abs(self.vpar)
        self.zt = np.array(
            [inp.species[s].z / inp.species[s].temp for s in spec]
        )  # (nv,)
        self.energy = vgrid.flat_energy()
        self.j_table = flr_table(vgrid, inp.k_theta_rho, dims.nt)  # (nv, nt)
        n_modes = np.arange(dims.nt)
        dlnn = np.array([inp.dlnndr[s] for s in spec])
        dlnt = np.array([inp.dlntdr[s] for s in spec])
        # diamagnetic T/z factor: keeps ion and electron contributions to
        # the phi feedback loop from cancelling (z enters the field
        # moment weight, so omega_star must carry 1/z)
        t_over_z = np.array(
            [inp.species[s].temp / inp.species[s].z for s in spec]
        )
        #: omega_star drive table, shape (nv, nt)
        self.omega_star = np.outer(
            t_over_z * (dlnn + dlnt * (self.energy - 1.5)),
            inp.k_theta_rho * n_modes,
        )
        #: drift frequency radial profile factor cos(theta), shape (nc,)
        self.cos_theta = np.cos(cgrid.flat_theta())
        #: per-(iv, n) drift prefactor, shape (nv, nt)
        self.drift_vn = inp.drift_coeff * np.outer(
            self.energy, inp.k_theta_rho * n_modes
        )
        #: radial curvature-drift profile k_r * sin(theta), shape (nc,)
        self.drift_radial = (
            inp.drift_r_coeff
            * cgrid.flat_k_radial()
            * np.sin(cgrid.flat_theta())
        )
        #: ExB shear Doppler shift per mode, shape (nt,)
        self.shear_n = inp.gamma_e * n_modes
        self._tables = PreparedSets(dims.nv, dims.nt)

    def _prepare(self, iv: np.ndarray, nt: np.ndarray) -> tuple:
        """:meth:`rhs`'s read-only factors on one index set: ``vth vpar``,
        ``(z/T) J``, ``-vth vpar``, ``c_up vth |vpar|``, ``c_uf vth |vpar|
        J`` and ``1j (omega_star J)`` as complex128 ``(1, niv, nnt)``, then
        ``1j omega`` ``(nc, niv, nnt)``.  Each is associated as the inline
        expression was, and a real one is stored as the ``x + 0j`` NumPy
        multiplies a complex operand by anyway: same bits, one unbuffered
        loop per ``ic``.  ``1j omega``, the one state-sized table, is held
        once per process for all operators with equal drift inputs
        (ensemble members differ in gradients it does not read)."""
        inp = self.inp
        j = self.j_table[np.ix_(iv, nt)][None, :, :]
        vth, vpar, avpar = (a[iv][None, :, None] for a in (self.vth, self.vpar, self.abs_vpar))
        factors = (
            vth * vpar,
            self.zt[iv][None, :, None] * j,
            -vth * vpar,
            inp.upwind_coeff * vth * avpar,
            inp.upwind_field_coeff * vth * avpar * j,
            1j * (self.omega_star[np.ix_(iv, nt)][None, :, :] * j),
        )
        shape = (1, iv.size, nt.size)
        tables = [np.ascontiguousarray(np.broadcast_to(f, shape), dtype=complex) for f in factors]
        # everything the drift reads (box_length enters via k_radial)
        key = (self.dims, inp.drift_coeff, inp.drift_r_coeff, inp.gamma_e, inp.k_theta_rho,
               self.cgrid.k_radial.tobytes(), iv.tobytes(), nt.tobytes())
        drift = _DRIFT.get(key)
        if drift is None:
            omega = (
                self.cos_theta[:, None, None] * self.drift_vn[np.ix_(iv, nt)][None, :, :]
                + self.drift_radial[:, None, None] * self.energy[iv][None, :, None]
                + self.shear_n[nt][None, None, :]
            )
            drift = _DRIFT[key] = 1j * omega
        for table in tables + [drift]:
            table.flags.writeable = False
        return (*tables, drift)

    def rhs(
        self,
        h: np.ndarray,
        phi: np.ndarray,
        psi_u: np.ndarray,
        iv_idx: Sequence[int],
        nt_idx: Sequence[int],
        apar: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Streaming RHS on an (iv, nt) subset.

        Parameters
        ----------
        h:
            State block, shape ``(nc, len(iv_idx), len(nt_idx))``.
        phi, psi_u:
            Fields from the solve, shape ``(nc, len(nt_idx))``.
        iv_idx, nt_idx:
            Global indices of the block's velocity / toroidal axes.
        apar:
            A_parallel field for electromagnetic runs (``None`` =
            electrostatic).  Enters through the generalised potential
            ``pot = phi - vth vpar apar`` in both the streamed
            ``chi`` and the gradient drive.
        """
        vth_vpar, zt_j, stream, upwind, upwind_field, drive, drift = self._tables.get(
            iv_idx, nt_idx, self._prepare
        )
        nc, niv, nnt = drift.shape
        if h.shape != (nc, niv, nnt):
            raise InputError(f"h shape {h.shape} != ({nc}, {niv}, {nnt})")
        if phi.shape != (nc, nnt) or psi_u.shape != phi.shape:
            raise InputError("phi/psi_u must have shape (nc, len(nt_idx))")
        if apar is not None and apar.shape != phi.shape:
            raise InputError("apar must have shape (nc, len(nt_idx))")
        # every table is purely real or imaginary: operand order moves no bit
        # generalised potential phi - vth vpar A_par (EM runs), over all iv
        if apar is not None:
            pot = phi[:, None, :] - vth_vpar * apar[:, None, :]
        else:
            pot = np.repeat(phi[:, None, :], niv, axis=1)
        pot = pot.astype(np.complex128, copy=False)

        # parallel streaming of chi = h + (z/T) J pot
        out = self.cgrid.d_dtheta_centered(h + zt_j * pot)
        np.multiply(stream, out, out=out)
        # upwind dissipation on h
        out += upwind * self.cgrid.d_dtheta_upwind_diss(h)
        # upwind field correction (exercises the second str AllReduce)
        if self.inp.upwind_field_coeff != 0.0:
            diss_u = self.cgrid.d_dtheta_upwind_diss(psi_u)[:, None, :]
            out -= upwind_field * np.repeat(diss_u, niv, axis=1)
        # gradient drive (acts on the generalised potential)
        out += np.multiply(drive, pot, out=pot)
        # drift (toroidal + radial curvature components) + ExB shear
        out -= np.multiply(drift, h, out=pot)
        return out

