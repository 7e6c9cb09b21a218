"""The function census's diff logic (``tests/census/run_census.py``) on a
synthetic module, and its committed list on the real tree.

The census itself runs every command CI runs and takes minutes: it is
its own CI job.  What is checked here is the part that decides what an
entry means — which ``(file, first line)`` a recorded code object
matches, which never-entered functions are reported, and what the
ratchet refuses — plus that ``never_entered.txt`` still names only
functions that exist, each with a valid reason.  The recorder and the
runner are checked on a few one-line child processes: what they record,
that the recorder stays off unless asked, that the input script writes
files the commands can read, and that every CLI command is listed.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("run_census", HERE / "census" / "run_census.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_LIB = '''\
import functools


@functools.lru_cache()
def cached():
    return 1


def outer():
    def inner():
        return 2

    def inner_unused():
        return 3

    return inner()


def never():
    def nested():
        pass


class Box:
    @property
    def size(self):
        return 0

    def unused(self):
        return 1
'''


def _entered(source, *names):
    """``(path, first line)`` of each function ``names`` as CPython's
    ``co_firstlineno`` gives it: compiled and read off the code objects."""
    codes = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if isinstance(const, type(code)):
                name = prefix + const.co_name
                codes[name] = const
                function = const.co_flags & inspect.CO_OPTIMIZED
                walk(const, name + (".<locals>." if function else "."))

    walk(compile(source, "src/lib.py", "exec"), "")
    return {("src/lib.py", codes[name].co_firstlineno) for name in names}


def test_functions_match_code_objects_by_first_line(census):
    """A decorated function's code starts at its first decorator, as
    ``functions`` records it; nested functions carry Python's qualname."""
    fns = {f.key.split("::")[1]: f for f in census.functions("src/lib.py", ast.parse(_LIB))}
    assert fns["cached"].first == 4  # the decorator line, not the def's 5
    assert fns["Box.size"].first == 25
    assert fns["outer.<locals>.inner"].parent == "src/lib.py::outer"
    assert fns["Box.unused"].parent is None
    assert fns["cached"].lines == 2
    entered = _entered(_LIB, "cached", "outer", "outer.<locals>.inner", "Box.size")
    assert ("src/lib.py", fns["cached"].first) in entered


def test_only_the_outermost_never_entered_function_counts(census):
    entered = _entered(_LIB, "cached", "outer", "outer.<locals>.inner", "Box.size")
    found = census.never_entered({"src/lib.py": _LIB}, entered)
    assert found == {
        "src/lib.py::outer.<locals>.inner_unused": 2,  # its parent ran
        "src/lib.py::never": 3,  # `nested` is not listed: nothing could call it
        "src/lib.py::Box.unused": 2,
    }


def test_the_ratchet_refuses_both_ways(census):
    found = {"src/lib.py::never": 3, "src/lib.py::Box.unused": 2}
    listed = census.read_listed(
        "# comment\nsrc/lib.py::never 3 refusal\nsrc/lib.py::gone 4 format  # note\n"
    )
    assert listed == {"src/lib.py::never": (3, "refusal"), "src/lib.py::gone": (4, "format")}
    out = census.problems(found, listed)
    assert len(out) == 2
    assert "not listed" in out[0] and "src/lib.py::Box.unused 2" in out[0]
    assert "entered or gone" in out[1] and "src/lib.py::gone" in out[1]
    assert census.problems(found, dict(listed, **{"src/lib.py::Box.unused": (2, "entry")})) == [
        out[1]
    ]
    stale = census.problems({"src/lib.py::never": 5}, {"src/lib.py::never": (3, "hunch")})
    assert [s.split(" ")[0] for s in stale] == ["listed", "src/lib.py::never:"]


def test_the_committed_list_names_real_functions_with_reasons(census):
    """Without a run: every listed function exists with the listed line
    count and a reason of REASONS — the symbol census's three plus
    ``refusal`` — so the list cannot rot between census runs."""
    assert set(census.REASONS) == {"format", "reference", "entry", "refusal"}
    defined = {
        fn.key: fn.lines
        for path, text in census.src_sources().items()
        for fn in census.functions(path, ast.parse(text))
    }
    listed = census.read_listed(census.LISTED.read_text())
    assert listed
    for key, (lines, reason) in listed.items():
        assert defined.get(key) == lines, key
        assert reason in census.REASONS, key


def test_read_entered_merges_every_process_dump(census, tmp_path):
    (tmp_path / "entered").mkdir()
    (tmp_path / "entered" / "a.json").write_text('[["src/a.py", 3], ["src/b.py", 7]]')
    (tmp_path / "entered" / "b.json").write_text('[["src/a.py", 3], ["src/a.py", 9]]')
    (tmp_path / "stray.json").write_text('[["src/c.py", 1]]')  # not under entered/
    assert census.read_entered(tmp_path) == {("src/a.py", 3), ("src/a.py", 9), ("src/b.py", 7)}


def test_a_run_records_src_entries_and_reports_wrong_exits(census, tmp_path, monkeypatch):
    """``run`` puts the recorder on every child's path: a child's
    ``src/`` calls land in ``entered/``, and a child exiting otherwise
    than its command expects is one failure line."""
    cmds = [
        census._python("-c", "from repro.cgyro.presets import small_test; small_test()"),
        census._python("-c", "raise SystemExit(3)"),
        census._python("-c", "raise SystemExit(2)")._replace(exit_code=2),
    ]
    monkeypatch.setattr(census, "commands", lambda: iter(cmds))
    failed = census.run(tmp_path)
    assert len(failed) == 1 and "exited 3, expected 0" in failed[0]
    assert len(list((tmp_path / "entered").glob("*.json"))) == 3  # one dump per process
    entered = census.read_entered(tmp_path)
    path = "src/repro/cgyro/presets.py"
    small_test = {
        fn.key: fn for fn in census.functions(path, ast.parse(census.src_sources()[path]))
    }[f"{path}::small_test"]
    assert (path, small_test.first) in entered
    assert all(p.startswith("src/") for p, _ in entered)


def test_the_recorder_stays_off_without_its_directory(census, tmp_path):
    """A process that imports the recorder but is not given
    ``$REPRO_CENSUS_DIR`` sets no profile hook and writes nothing."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CENSUS_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(HERE / "census"), str(HERE.parent / "src")])
    probe = "import sys, sitecustomize; print(sitecustomize.__file__, sys.getprofile())"
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert Path(out[0]).resolve() == HERE / "census" / "sitecustomize.py"
    assert out[1] == "None"
    assert list(tmp_path.iterdir()) == []


def test_the_input_script_writes_what_the_commands_read(census, tmp_path, monkeypatch):
    """The census's inputs come from the public writers and load back
    through the readers the CLI commands use."""
    from repro.campaign import RequestQueue
    from repro.cgyro.io import parse_input_file
    from repro.cgyro.presets import small_test
    from repro.resilience import FaultPlan
    from repro.xgyro.input import parse_ensemble

    monkeypatch.chdir(tmp_path)
    exec(compile(census.INPUTS, "INPUTS", "exec"), {})
    assert parse_input_file("case/input.cgyro") == small_test()
    assert len(parse_ensemble("ensemble/input.xgyro")) == 4
    assert all(m.conserve_energy for m in parse_ensemble("study/input.xgyro"))
    assert len(RequestQueue.from_json(Path("requests.json")).pending()) == 3
    assert [s.kind for s in FaultPlan.from_file("faults.json").specs] == ["bitflip", "rank_crash"]


def test_every_cli_command_is_in_the_command_list(census):
    """Each ``repro`` subcommand runs at least once in the census, so
    its job is also the CLI smoke step."""
    from repro.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    run = {c.argv[3] for c in census.commands() if c.argv[1:3] == ["-m", "repro"]}
    assert run == set(sub.choices)


def test_skip_run_needs_the_directory_of_a_finished_run(census):
    with pytest.raises(SystemExit) as exc:
        census.main(["--skip-run"])
    assert exc.value.code == 2
