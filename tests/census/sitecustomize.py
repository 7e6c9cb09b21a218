"""Function-entry recorder of the function census (``run_census.py``).

Only the census driver puts this directory on ``PYTHONPATH``, so only
the processes it starts import this module at start-up — the CLI,
``pytest``, hostbench and every child hostbench starts.  Each records
the code objects it enters (``sys.setprofile`` / ``threading.setprofile``
``call`` events: a function counts once it runs, however little of it)
and at exit writes those defined under ``src/`` to one JSON file of
``[path, first line]`` pairs in ``$REPRO_CENSUS_DIR``.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import tempfile
import threading

_OUT = os.environ.get("REPRO_CENSUS_DIR")
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__))))
_SRC = os.path.join(_ROOT, "src") + os.sep

if _OUT:
    _entered = {}  # id(code) -> code; holding the code keeps its id unique

    def _profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _entered[id(code)] = code

    def _dump():
        sys.setprofile(None)
        where = {}
        for code in _entered.values():
            if code.co_filename not in where:
                path = os.path.realpath(code.co_filename)
                where[code.co_filename] = (
                    os.path.relpath(path, _ROOT) if path.startswith(_SRC) else None
                )
        entered = sorted(
            {(where[c.co_filename], c.co_firstlineno) for c in _entered.values()
             if where[c.co_filename]}
        )
        fd, _ = tempfile.mkstemp(suffix=".json", dir=_OUT)
        with os.fdopen(fd, "w") as fh:
            json.dump(entered, fh)

    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
