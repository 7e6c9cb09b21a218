"""XGYRO ensemble input format.

Like the real tool, an XGYRO run is described by a small top-level
file (``input.xgyro``) listing the member simulation directories, each
of which holds its own ``input.cgyro``:

    # input.xgyro
    N_ENSEMBLE=3
    DIR=case_a
    DIR=case_b
    DIR=case_c

Directories are resolved relative to the input file.  Parsing also
*validates* the ensemble (shareable cmat) unless asked not to, so a
bad ensemble fails at submit time, not after the machine is allocated.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

from repro.errors import InputError
from repro.cgyro.io import parse_input_file, write_input_file
from repro.cgyro.params import CgyroInput
from repro.xgyro.validate import validate_shareable


def write_ensemble(
    inputs: Sequence[CgyroInput],
    root: Union[str, Path],
) -> Path:
    """Materialise an ensemble on disk (member ``m`` in directory
    ``member{m:02d}``); returns the input.xgyro path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    lines = [f"N_ENSEMBLE={len(inputs)}"]
    for m, inp in enumerate(inputs):
        name = f"member{m:02d}"
        member_dir = root / name
        member_dir.mkdir(parents=True, exist_ok=True)
        write_input_file(inp, member_dir / "input.cgyro")
        lines.append(f"DIR={name}")
    top = root / "input.xgyro"
    top.write_text("\n".join(lines) + "\n")
    return top


def parse_ensemble(path: Union[str, Path]) -> List[CgyroInput]:
    """Parse an ``input.xgyro`` file into the member inputs."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"xgyro input file not found: {path}")
    n_ensemble = None
    dirs: List[str] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "N_ENSEMBLE":
            n_ensemble = int(value)
        elif key == "DIR":
            dirs.append(value)
        else:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
    if n_ensemble is None:
        raise InputError(f"{path}: missing N_ENSEMBLE")
    if n_ensemble != len(dirs):
        raise InputError(
            f"{path}: N_ENSEMBLE={n_ensemble} but {len(dirs)} DIR entries"
        )
    inputs = [
        parse_input_file(path.parent / d / "input.cgyro") for d in dirs
    ]
    validate_shareable(inputs)
    return inputs
