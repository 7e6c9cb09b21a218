"""Import on use: a process loads a third-party module only if it calls it.

``scipy.optimize`` (the machine calibration fit) and
``scipy.sparse.linalg`` (the linear solver's Arnoldi eigen-solve) are
imported by their only callers; ``scipy.linalg``, which
``roots_genlaguerre`` imports on its first call, is imported with the
velocity grid, so no grid build or solver step pays an import.  Each
check runs in a fresh interpreter: the modules this test process
already holds would hide an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(code: str) -> list:
    """Run ``code`` in a fresh interpreter; it prints a JSON list."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_entry_points_load_no_cold_solver():
    loaded = _modules_after(
        "import json, sys\n"
        "import repro.cli, repro.service, repro.check, repro.xgyro, repro.obs\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.perf.calibrate" in loaded and "repro.cgyro.linear" in loaded
    assert "scipy.optimize" not in loaded
    assert "scipy.sparse.linalg" not in loaded


def test_grid_build_and_solver_step_import_no_scipy_module():
    added = _modules_after(
        "import json, sys\n"
        "from repro.cgyro import CgyroSimulation, small_test\n"
        "from repro.grid import VelocityGrid\n"
        "from repro.machine import single_node\n"
        "from repro.vmpi import VirtualWorld\n"
        "before = set(sys.modules)\n"
        "inp = small_test()\n"
        "VelocityGrid.build(inp.grid_dims())\n"
        "CgyroSimulation(VirtualWorld(single_node(ranks=4)), range(4), inp).step()\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert [m for m in added if m == "scipy" or m.startswith("scipy.")] == []
