"""Import on use: a process loads a third-party module only if it calls it.

``scipy.optimize`` (the machine calibration fit) and
``scipy.sparse.linalg`` (the linear solver's Arnoldi eigen-solve) are
imported by their only callers.  The energy quadrature is
``scipy.special.roots_genlaguerre``'s bytes read from a committed table
up to 16 nodes, so no grid build, solver step, ``repro serve``,
``repro run-xgyro`` or ``repro --help`` loads any scipy module; only a
grid of more energy nodes imports ``scipy.special``.  No run path calls
NumPy's ``np.unique`` without ``return_inverse`` (NumPy 2 imports
``numpy.ma`` on its first such call), so neither a solver step, ``repro
serve``, ``repro run-xgyro`` nor the differential oracle loads
``numpy.ma``.  Each check runs in a fresh interpreter: the modules this
test process already holds would hide an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(code: str, cwd=None) -> list:
    """Run ``code`` in a fresh interpreter; it prints a JSON list."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _scipy(modules: list) -> list:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def _numpy_ma(modules: list) -> list:
    return [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")]


def _cli_modules(argv: list, cwd=None) -> list:
    """Every module a fresh interpreter holds after ``repro argv``."""
    return _modules_after(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        assert main({argv!r}) == 0\n"
        "    except SystemExit as exc:  # --help exits\n"
        "        assert exc.code == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n",
        cwd,
    )


def test_entry_points_load_no_cold_solver():
    loaded = _modules_after(
        "import importlib, json, pkgutil, sys\n"
        "import repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if m.name != 'repro.__main__':\n"
        "        importlib.import_module(m.name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.perf.calibrate" in loaded and "repro.cgyro.linear" in loaded
    assert "scipy.optimize" not in loaded
    assert "scipy.sparse.linalg" not in loaded


def test_grid_build_and_solver_step_import_no_scipy_module():
    added = _modules_after(
        "import json, sys\n"
        "from repro.cgyro.presets import small_test\n"
        "from repro.cgyro.solver import CgyroSimulation\n"
        "from repro.grid.velocity import VelocityGrid\n"
        "from repro.machine.presets import single_node\n"
        "from repro.vmpi.world import VirtualWorld\n"
        "before = set(sys.modules)\n"
        "inp = small_test()\n"
        "VelocityGrid.build(inp.grid_dims())\n"
        "CgyroSimulation(VirtualWorld(single_node(ranks=4)), range(4), inp).step()\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert _scipy(added) == [] and _numpy_ma(added) == []


def test_only_a_grid_past_the_table_loads_scipy_special():
    loaded = _modules_after(
        "import json, sys\n"
        "from repro.grid.dims import GridDims\n"
        "from repro.grid.velocity import VelocityGrid\n"
        "VelocityGrid.build(GridDims(2, 2, 16, 4, 1, 1))\n"
        "table = sorted(sys.modules)\n"
        "VelocityGrid.build(GridDims(2, 2, 17, 4, 1, 1))\n"
        "print(json.dumps([table, sorted(sys.modules)]))\n"
    )
    assert _scipy(loaded[0]) == []
    assert "scipy.special" in loaded[1]


def test_help_serve_run_xgyro_and_the_oracle_load_no_scipy_or_numpy_ma(tmp_path):
    from repro.cgyro.presets import small_test
    from repro.xgyro.input import write_ensemble

    members = [small_test(dlntdr=(g, g), name=f"m{g:g}") for g in (2.0, 3.0)]
    write_ensemble(members, tmp_path / "ensemble")
    assert _scipy(_cli_modules(["--help"])) == []
    for loaded in (
        _cli_modules(["serve", "--smoke"], tmp_path),
        _cli_modules(["run-xgyro", "ensemble/input.xgyro", "--nodes", "1"], tmp_path),
        _modules_after(
            "import json, sys\n"
            "from repro.cgyro.presets import small_test\n"
            "from repro.check.oracle import differential_oracle\n"
            "from repro.machine.presets import generic_cluster\n"
            "members = [small_test(dlntdr=(g, g), name=str(g)) for g in (2.0, 3.0)]\n"
            "assert differential_oracle(members, generic_cluster(n_nodes=2)).ok\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        ),
    ):
        assert _scipy(loaded) == [] and _numpy_ma(loaded) == []


def test_import_repro_loads_only_the_version():
    """The top-level package re-exports nothing: each name is imported
    from the module that defines it, so ``import repro`` loads no layer."""
    added = _modules_after(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert [m for m in added if m.startswith("repro")] == ["repro", "repro._version"]
