"""Statement recorder of the census (``run_census.py``).

Only ``run_census.py`` puts this directory on ``PYTHONPATH``, so only
the processes it starts import this module at start-up — the CLI,
``pytest``, hostbench and every child hostbench starts.  Each traces
itself with ``sys.settrace`` / ``threading.settrace``: the global hook
sees every ``call`` and hands a local line tracer only to frames whose
code lives under ``src/``, so other code runs at the cost of one call
per frame.  At exit it writes one JSON file to ``$REPRO_CENSUS_DIR``::

    {"entered": [[path, first line], ...], "lines": {path: [line, ...]}}

``entered`` holds the code objects a ``call`` event started (a function
counts once it runs, however little of it) and ``lines`` every line a
``line`` event reported, both for ``src/`` files only.
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
    _where = {}  # co_filename -> path relative to the root, or None outside src/
    _entered = {}  # id(code) -> code; holding the code keeps its id unique
    _ran = set()  # (co_filename, line)
    _ran_add = _ran.add

    def _local(frame, event, arg):
        if event == "line":
            _ran_add((frame.f_code.co_filename, frame.f_lineno))
        return _local

    def _global(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        path = _where.get(name, False)
        if path is False:
            real = os.path.realpath(name)
            path = _where[name] = os.path.relpath(real, _ROOT) if real.startswith(_SRC) else None
        if path is None:
            return None
        _entered[id(code)] = code
        return _local

    def _dump():
        sys.settrace(None)
        lines = {}
        for name, line in _ran:
            lines.setdefault(_where[name], set()).add(line)
        out = {
            "entered": sorted({(_where[c.co_filename], c.co_firstlineno)
                               for c in _entered.values()}),
            "lines": {path: sorted(ran) for path, ran in sorted(lines.items())},
        }
        fd, _ = tempfile.mkstemp(suffix=".json", dir=_OUT)
        with os.fdopen(fd, "w") as fh:
            json.dump(out, fh)

    atexit.register(_dump)
    threading.settrace(_global)
    sys.settrace(_global)
