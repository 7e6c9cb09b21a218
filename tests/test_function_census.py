"""The statement census's diff logic (``tests/census/run_census.py``)
on synthetic modules, and its committed list on the real tree.

The census itself runs every command CI runs and takes minutes: it is
its own CI job.  What is checked here is the part that decides what a
record means — which ``(file, first line)`` a recorded code object
matches, which never-entered functions and unreached statements are
reported (the statements against CPython's own line events), which
refusals are left out, and what the ratchet refuses — plus that
``never_reached.txt`` still names only functions that exist, each with
a valid reason.  The recorder and the runner are checked on a few
one-line child processes: what they record, that the recorder stays
off unless asked, that the input script writes files the commands can
read, and that every CLI command is listed.
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


def _ran(source, *calls):
    """The lines CPython reports running ``calls`` (expressions) against
    ``source`` compiled as ``src/lib.py``, as the recorder sees them,
    and the functions those calls entered."""
    ran, entered = set(), set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != "src/lib.py":
            return None
        entered.add(("src/lib.py", frame.f_code.co_firstlineno))

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local

    namespace = {}
    exec(compile(source, "src/lib.py", "exec"), namespace)
    sys.settrace(tracer)
    try:
        for call in calls:
            eval(call, namespace)
    finally:
        sys.settrace(None)
    return entered, {"src/lib.py": ran}


def test_only_the_outermost_never_entered_function_counts(census):
    entered, ran = _ran(_LIB, "cached()", "outer()", "Box().size")
    assert entered == _entered(_LIB, "cached", "outer", "outer.<locals>.inner", "Box.size")
    found = census.never_reached({"src/lib.py": _LIB}, entered, ran)
    assert found == {
        "src/lib.py::outer.<locals>.inner_unused": 2,  # its parent ran
        "src/lib.py::never": 3,  # `nested` is not listed: nothing could call it
        "src/lib.py::Box.unused": 2,
    }


_BRANCHY = '''\
def f(x):
    """doc"""
    if x > 0:
        y = x
        return y
    if x < -10:
        raise ValueError("too small")
    try:
        z = 1 / x
    except ZeroDivisionError:
        z = 0
    if x == -5:
        a = 1
        if a:
            b = 2
        return b
    elif x == -6:
        msg = "bad"
        raise ValueError(msg)
    return (
        z
    )
'''


@pytest.mark.parametrize("calls,lines", [
    (["f(1)"], {8, 9, 12, 13, 14, 15, 16, 20, 21, 22}),  # the rest of f, the elif guard aside
    (["f(1)", "f(0)"], {13, 14, 15, 16}),  # the x == -5 body, as four lines
    (["f(1)", "f(0)", "f(-5)"], set()),
])
def test_unreached_statements_count_once_and_refusals_not_at_all(census, calls, lines):
    """Against CPython's own line events: an unreached block counts its
    lines once, at its outermost statement; ``raise``, the ``if`` that
    only raises, the raising ``elif`` block and the ``except`` body are
    never counted, reached or not; a multi-line ``return`` counts as
    reached though its first instruction may sit on a later line."""
    entered, ran = _ran(_BRANCHY, *calls)
    (fn,) = census.functions("src/lib.py", ast.parse(_BRANCHY))
    unreached = census.unreached_lines(fn.node, ran["src/lib.py"], _BRANCHY.splitlines())
    assert unreached == lines
    found = census.never_reached({"src/lib.py": _BRANCHY}, entered, ran)
    assert found == ({"src/lib.py::f": len(lines)} if lines else {})


def test_a_nested_def_that_never_ran_belongs_to_its_parent(census):
    """A nested function whose ``def`` line never ran is an unreached
    statement of its parent; one whose ``def`` ran but was never called
    is a never-entered function of its own."""
    source = (
        "def outer(flag):\n"
        "    def made():\n"
        "        return 1\n"
        "    if flag:\n"
        "        def skipped():\n"
        "            return 2\n"
        "    return 0\n"
    )
    entered, ran = _ran(source, "outer(False)")
    found = census.never_reached({"src/lib.py": source}, entered, ran)
    assert found == {"src/lib.py::outer": 2, "src/lib.py::outer.<locals>.made": 2}


def test_the_ratchet_refuses_both_ways(census):
    found = {"src/lib.py::never": 3, "src/lib.py::Box.unused": 2}
    listed = census.read_listed(
        "# comment\nsrc/lib.py::never 3 refusal\nsrc/lib.py::gone 4 format  # note\n"
    )
    assert listed == {"src/lib.py::never": (3, "refusal"), "src/lib.py::gone": (4, "format")}
    out = census.problems(found, listed)
    assert len(out) == 2
    assert "not listed" in out[0] and "src/lib.py::Box.unused 2" in out[0]
    assert "reached or gone" in out[1] and "src/lib.py::gone" in out[1]
    assert census.problems(found, dict(listed, **{"src/lib.py::Box.unused": (2, "entry")})) == [
        out[1]
    ]
    stale = census.problems({"src/lib.py::never": 5}, {"src/lib.py::never": (3, "hunch")})
    assert [s.split(" ")[0] for s in stale] == ["listed", "src/lib.py::never:"]


def test_the_committed_list_names_real_functions_with_reasons(census):
    """Without a run: every listed function exists, lists no more lines
    than it has, and has a reason of REASONS — the symbol census's three
    plus ``refusal``, ``edge`` and ``diagnosis`` — so the list cannot
    rot between census runs."""
    assert set(census.REASONS) == {"format", "reference", "entry", "refusal", "edge",
                                   "diagnosis"}
    defined = {
        fn.key: fn.lines
        for path, text in census.src_sources().items()
        for fn in census.functions(path, ast.parse(text))
    }
    listed = census.read_listed(census.LISTED.read_text())
    assert listed
    for key, (lines, reason) in listed.items():
        assert 0 < lines <= defined.get(key, 0), key
        assert reason in census.REASONS, key


def test_read_runs_merges_every_process_dump(census, tmp_path):
    (tmp_path / "entered").mkdir()
    (tmp_path / "entered" / "a.json").write_text(
        '{"entered": [["src/a.py", 3], ["src/b.py", 7]], "lines": {"src/a.py": [4, 5]}}')
    (tmp_path / "entered" / "b.json").write_text(
        '{"entered": [["src/a.py", 3], ["src/a.py", 9]], "lines": {"src/a.py": [5, 10]}}')
    (tmp_path / "stray.json").write_text('{"entered": [["src/c.py", 1]], "lines": {}}')
    entered, ran = census.read_runs(tmp_path)
    assert entered == {("src/a.py", 3), ("src/a.py", 9), ("src/b.py", 7)}
    assert ran == {"src/a.py": {4, 5, 10}}


def test_a_run_records_src_entries_and_reports_wrong_exits(census, tmp_path, monkeypatch):
    """``run`` puts the recorder on every child's path: a child's
    ``src/`` calls and lines land in ``entered/``, its stdout in
    ``stdout/``, and a child exiting otherwise than its command expects,
    or not printing what it must, is one failure line."""
    cmds = [
        census._python("-c", "from repro.cgyro.presets import small_test; small_test()"),
        census._python("-c", "raise SystemExit(3)"),
        census._python("-c", "raise SystemExit(2)")._replace(exit_code=2),
        census._python("-c", "print('k=1')")._replace(expect="k=1"),
        census._python("-c", "print('k=3')")._replace(expect="k=1"),
    ]
    monkeypatch.setattr(census, "commands", lambda: iter(cmds))
    failed = census.run(tmp_path)
    assert len(failed) == 2
    assert "exited 3, expected 0" in failed[0] and "printed no 'k=1'" in failed[1]
    assert len(list((tmp_path / "entered").glob("*.json"))) == 5  # one dump per process
    assert (tmp_path / "stdout" / "003.txt").read_text().endswith("\nk=1\n")
    entered, ran = census.read_runs(tmp_path)
    path = "src/repro/cgyro/presets.py"
    small_test = {
        fn.key: fn for fn in census.functions(path, ast.parse(census.src_sources()[path]))
    }[f"{path}::small_test"]
    assert (path, small_test.first) in entered
    assert ran[path] & set(range(small_test.first, small_test.first + small_test.lines))
    assert all(p.startswith("src/") for p, _ in entered) and all(p.startswith("src/") for p in ran)


def test_the_recorder_stays_off_without_its_directory(census, tmp_path):
    """A process that imports the recorder but is not given
    ``$REPRO_CENSUS_DIR`` sets no trace hook and writes nothing."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CENSUS_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(HERE / "census"), str(HERE.parent / "src")])
    probe = "import sys, sitecustomize; print(sitecustomize.__file__, sys.gettrace())"
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout.split()
    assert Path(out[0]).resolve() == HERE / "census" / "sitecustomize.py"
    assert out[1] == "None"
    assert list(tmp_path.iterdir()) == []


def test_the_input_script_writes_what_the_commands_read(census, tmp_path, monkeypatch):
    """The census's inputs come from the public writers and load back
    through the readers the CLI commands use."""
    from repro.campaign.request import RequestQueue
    from repro.cgyro.io import parse_input_file
    from repro.cgyro.presets import small_test
    from repro.resilience.faults import FaultPlan
    from repro.xgyro.input import parse_ensemble

    monkeypatch.chdir(tmp_path)
    exec(compile(census.INPUTS, "INPUTS", "exec"), {})
    assert parse_input_file("case/input.cgyro") == small_test()
    assert len(parse_ensemble("ensemble/input.xgyro")) == 4
    assert all(m.conserve_energy for m in parse_ensemble("study/input.xgyro"))
    assert len(RequestQueue.from_json(Path("requests.json")).pending()) == 3
    assert [s.kind for s in FaultPlan.from_file("faults.json").specs] == ["bitflip", "rank_crash"]
    assert parse_input_file("nonlinear/input.cgyro") == small_test(nonlinear=True)
    assert [s.kind for s in FaultPlan.from_file("stragglers.json").specs] == [
        "slowdown", "link_slowdown"]
    assert [s.kind for s in FaultPlan.from_file("flaky-node.json").specs] == [
        "node_loss", "slowdown"]


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
