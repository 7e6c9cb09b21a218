"""Input-file and timing-output formats.

Mirrors the ergonomics of the real code: a simulation directory holds
an ``input.cgyro`` of ``KEY=VALUE`` lines (``#`` comments), and a run
appends per-report timing rows to ``out.cgyro.timing`` (CSV).  The
XGYRO ensemble format lives in :mod:`repro.xgyro.input`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.errors import InputError
from repro.cgyro.params import CgyroInput
from repro.cgyro.timing import CATEGORY_ORDER, ReportRow
from repro.collision.params import SpeciesParams

#: scalar input keys <-> CgyroInput field names
_SCALAR_KEYS: Dict[str, str] = {
    "N_RADIAL": "n_radial",
    "N_THETA": "n_theta",
    "N_ENERGY": "n_energy",
    "N_XI": "n_xi",
    "N_SPECIES": "n_species",
    "N_TOROIDAL": "n_toroidal",
    "NU": "nu",
    "ENERGY_DIFF_COEFF": "energy_diff_coeff",
    "FLR_COEFF": "flr_coeff",
    "NU_PROFILE_EPS": "nu_profile_eps",
    "CONSERVE_MOMENTUM": "conserve_momentum",
    "CONSERVE_ENERGY": "conserve_energy",
    "DELTA_T": "delta_t",
    "GAMMA_E": "gamma_e",
    "NONADIABATIC_DELTA": "nonadiabatic_delta",
    "K_THETA_RHO": "k_theta_rho",
    "DRIFT_COEFF": "drift_coeff",
    "DRIFT_R_COEFF": "drift_r_coeff",
    "BETA_E": "beta_e",
    "UPWIND_COEFF": "upwind_coeff",
    "UPWIND_FIELD_COEFF": "upwind_field_coeff",
    "NL_COEFF": "nl_coeff",
    "LAMBDA_DEBYE": "lambda_debye",
    "BOX_LENGTH": "box_length",
    "NONLINEAR_FLAG": "nonlinear",
    "STEPS_PER_REPORT": "steps_per_report",
    "AMP": "amp",
    "SEED": "seed",
    "NAME": "name",
}

_INT_FIELDS = {
    "n_radial", "n_theta", "n_energy", "n_xi", "n_species", "n_toroidal",
    "steps_per_report", "seed",
}
_BOOL_FIELDS = {"conserve_momentum", "conserve_energy", "nonlinear"}


def write_input_file(inp: CgyroInput, path: Union[str, Path]) -> None:
    """Write ``inp`` as an ``input.cgyro``-style file."""
    lines = [f"# repro input file for {inp.name}"]
    for key, field in _SCALAR_KEYS.items():
        value = getattr(inp, field)
        if field in _BOOL_FIELDS:
            value = int(value)
        lines.append(f"{key}={value}")
    for s, sp in enumerate(inp.species, start=1):
        lines.append(f"NAME_{s}={sp.name}")
        lines.append(f"Z_{s}={sp.z}")
        lines.append(f"MASS_{s}={sp.mass}")
        lines.append(f"DENS_{s}={sp.dens}")
        lines.append(f"TEMP_{s}={sp.temp}")
        lines.append(f"DLNNDR_{s}={inp.dlnndr[s - 1]}")
        lines.append(f"DLNTDR_{s}={inp.dlntdr[s - 1]}")
    Path(path).write_text("\n".join(lines) + "\n")


def parse_input_file(path: Union[str, Path]) -> CgyroInput:
    """Parse an ``input.cgyro``-style file into a validated input."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    kwargs: Dict[str, object] = {}
    per_species: Dict[str, Dict[int, object]] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        prefix, _, suffix = key.rpartition("_")
        field = _SCALAR_KEYS.get(key)
        where = f"{path}:{lineno}: {key}"
        if prefix in ("NAME", "Z", "MASS", "DENS", "TEMP", "DLNNDR", "DLNTDR") and suffix.isdigit():
            per_species.setdefault(prefix, {})[int(suffix)] = (
                value if prefix == "NAME" else _number(where, value, float)
            )
        elif field is None:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        elif field == "name":
            kwargs[field] = value
        elif field in _BOOL_FIELDS:
            kwargs[field] = bool(_number(where, value, int))
        else:
            kwargs[field] = _number(where, value, int if field in _INT_FIELDS else float)

    try:
        if per_species:
            species: List[SpeciesParams] = []
            dlnndr: List[float] = []
            dlntdr: List[float] = []
            for s in range(1, int(kwargs.get("n_species", 2)) + 1):
                try:
                    species.append(
                        SpeciesParams(
                            name=per_species.get("NAME", {}).get(s, f"s{s}"),
                            z=per_species["Z"][s],
                            mass=per_species["MASS"][s],
                            dens=per_species["DENS"][s],
                            temp=per_species["TEMP"][s],
                        )
                    )
                    dlnndr.append(per_species.get("DLNNDR", {}).get(s, 1.0))
                    dlntdr.append(per_species.get("DLNTDR", {}).get(s, 3.0))
                except KeyError as exc:
                    raise InputError(f"species {s} is missing field {exc.args[0]}") from None
            kwargs["species"] = tuple(species)
            kwargs["dlnndr"] = tuple(dlnndr)
            kwargs["dlntdr"] = tuple(dlntdr)
        return CgyroInput(**kwargs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _number(where: str, value: str, kind: type):
    """``kind(value)``, or an InputError naming the file, line and key."""
    try:
        return kind(value)
    except ValueError:
        raise InputError(f"{where}: {value!r} is not a valid {kind.__name__}") from None


def write_timing_csv(rows: Sequence[ReportRow], path: Union[str, Path]) -> None:
    """Write report rows as an ``out.cgyro.timing``-style CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time", "wall_s", *CATEGORY_ORDER])
        for r in rows:
            writer.writerow(
                [r.step, f"{r.time:.6f}", f"{r.wall_s:.6f}"]
                + [f"{r.categories.get(c, 0.0):.6f}" for c in CATEGORY_ORDER]
            )


def read_timing_csv(path: Union[str, Path]) -> List[ReportRow]:
    """Read rows written by :func:`write_timing_csv`."""
    import numpy as np

    rows: List[ReportRow] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(
                ReportRow(
                    step=int(rec["step"]),
                    time=float(rec["time"]),
                    wall_s=float(rec["wall_s"]),
                    categories={
                        c: float(rec[c]) for c in CATEGORY_ORDER if c in rec
                    },
                    flux=np.zeros(0),
                    phi2=np.zeros(0),
                )
            )
    return rows
