"""Checkpoint / restart.

CGYRO runs are long; production studies checkpoint the distribution
function and resume across job allocations.  The reproduction mirrors
that: a checkpoint stores the *global* state tensor plus enough
metadata to refuse a resume against a different physics configuration
(the cmat signature and step/time counters).

Checkpoints are ``.npz`` files.  A distributed simulation gathers its
state before writing and re-scatters on load, so checkpoints are
portable across rank counts — a run saved from 256 ranks restarts on
8, exactly like the real code's restart files.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.errors import InputError
from repro.cgyro.params import CgyroInput

#: Format version written into every checkpoint.
CHECKPOINT_VERSION = 1

#: The arrays every checkpoint holds.
_KEYS = ("version", "h", "step", "time", "signature")


def read_npz(path: Path, keys: Sequence[str], what: str) -> Dict[str, np.ndarray]:
    """The arrays ``keys`` of an ``.npz`` file, never unpickled: a file
    that is no such archive is an :class:`~repro.errors.InputError`."""
    try:
        with np.load(path) as data:
            return {key: data[key] for key in keys}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise InputError(f"{what} {path} is not a readable {what}: {exc}") from None


def _signature_digest(inp: CgyroInput) -> str:
    """Stable digest of the cmat signature (physics compatibility key)."""
    sig = inp.cmat_signature()
    payload = json.dumps(asdict(sig), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def save_checkpoint(
    path: Union[str, Path],
    h_global: np.ndarray,
    inp: CgyroInput,
    *,
    step: int,
    time: float,
) -> None:
    """Write a checkpoint of the global state tensor."""
    d = inp.grid_dims()
    if h_global.shape != (d.nc, d.nv, d.nt):
        raise InputError(
            f"state shape {h_global.shape} does not match grid "
            f"({d.nc}, {d.nv}, {d.nt})"
        )
    if step < 0 or time < 0:
        raise InputError("step and time must be >= 0")
    np.savez_compressed(
        path,
        version=np.int64(CHECKPOINT_VERSION),
        h=h_global,
        step=np.int64(step),
        time=np.float64(time),
        signature=np.bytes_(_signature_digest(inp).encode()),
        name=np.bytes_(inp.name.encode()),
    )


def load_checkpoint(
    path: Union[str, Path], inp: CgyroInput
) -> Tuple[np.ndarray, int, float]:
    """Load a checkpoint, validating physics compatibility.

    Returns ``(h_global, step, time)``.  Raises
    :class:`~repro.errors.InputError` when the file is missing, no npz
    archive of the checkpoint's arrays, from a different format version,
    out of the bounds :func:`save_checkpoint` enforces, not finite, or
    was written by a run whose cmat-relevant parameters differ (sweep
    parameters may differ — a restart with a new gradient is a
    legitimate continuation study).
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"checkpoint not found: {path}")
    fields = read_npz(path, _KEYS, "checkpoint")

    def scalar(key: str, kinds: str):
        value = fields[key]
        if value.shape != () or value.dtype.kind not in kinds:
            raise InputError(f"checkpoint {path}: {key} is not a number")
        return value.item()

    version = scalar("version", "iu")
    if version != CHECKPOINT_VERSION:
        raise InputError(
            f"checkpoint {path} has version {version}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    if fields["signature"].dtype.kind != "S" or (
        bytes(fields["signature"]) != _signature_digest(inp).encode()
    ):
        raise InputError(
            f"checkpoint {path} is physics-incompatible with this "
            "input: its cmat signature differs (grid/collision/dt "
            "changed since the checkpoint was written)"
        )
    step, time = scalar("step", "iu"), scalar("time", "iuf")
    if step < 0 or not 0 <= time < np.inf:
        raise InputError(f"checkpoint {path}: step and time must be finite and >= 0")
    h = fields["h"]
    d = inp.grid_dims()
    if h.shape != (d.nc, d.nv, d.nt) or h.dtype.kind not in "fc":
        raise InputError(
            f"checkpoint {path}: state {h.dtype} {h.shape} does not match grid"
        )
    if not np.isfinite(h).all():
        raise InputError(f"checkpoint {path}: state is not finite")
    return h, step, float(time)
