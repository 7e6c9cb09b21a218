"""Docs that can go red: every code name README, DESIGN and EXPERIMENTS
put in backticks still names something.

Three kinds are checked, in inline code spans (fenced blocks are
examples, not references):

- a dotted ``repro.*`` name imports, down to its last attribute, and
  so does each name DESIGN's artifact table gives relative to ``repro``
  (``obs.gate.load_bench_records``: a package or module of ``repro``
  first);
- a path under ``src/``, ``tests/``, ``benchmarks/``, ``hostbench/`` or
  ``examples/`` exists (a glob or ``{a,b}`` pattern matches a file;
  a ``file::name`` pytest id needs its file: a historical rename may
  name a test that is gone);
- a ``repro <subcommand>`` is a subcommand of the CLI.

A fourth kind reads every line, code blocks included, since the
examples are what people copy: each ``--flag`` that follows ``repro
<subcommand>`` on its line (up to a backtick, a pipe, ``;`` or ``&``;
a backslash-continued line goes on) is an option of that subcommand.

A change that deletes or renames code therefore has to fix the prose
that named it.
"""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path
from typing import Dict, Set, Tuple

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PATH_ROOTS = ("src/", "tests/", "benchmarks/", "hostbench/", "examples/")

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")
_SUBCOMMAND = re.compile(r"(?<![\w./-])repro ([a-z][\w-]*)")
_COMMAND = re.compile(r"(?<![\w./-])repro ([a-z][\w-]*)((?:(?!repro )[^`|;&\n])*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
_TABLE = re.compile(r"^\| artifact \(format tag\) \|.*\n(?:\|.*\n)+", re.M)
_RELATIVE = re.compile(r"(?<![\w./-])([a-z_]+)((?:\.\w+)+)")
PACKAGES = {p.stem for p in (ROOT / "src" / "repro").iterdir() if not p.name.startswith("_")}


def references() -> Dict[str, Set[str]]:
    """{"name" | "path" | "subcommand": the references of that kind}."""
    found: Dict[str, Set[str]] = {"name": set(), "path": set(), "subcommand": set()}
    for doc in DOCS:
        for span in _SPAN.findall(_FENCE.sub("", (ROOT / doc).read_text())):
            found["name"].update(m.group() for m in _NAME.finditer(span))
            found["subcommand"].update(m.group(1) for m in _SUBCOMMAND.finditer(span))
            found["path"].update(tok for tok in span.split() if tok.startswith(PATH_ROOTS))
    return found


def table_names(text: str) -> Set[str]:
    """The names the artifact table of ``text`` gives relative to
    ``repro`` (a backticked ``pkg.name`` whose ``pkg`` is a package or
    module of ``repro``), as ``repro.`` names."""
    spans = _SPAN.findall(_TABLE.search(text).group())
    return {
        f"repro.{m.group(1)}{m.group(2)}"
        for span in spans
        for m in _RELATIVE.finditer(span)
        if m.group(1) in PACKAGES
    }


def flag_uses(text: str) -> Set[Tuple[str, str]]:
    """``(subcommand, --flag)`` for each flag a ``repro`` command line
    of ``text`` passes."""
    return {
        (m.group(1), flag)
        for m in _COMMAND.finditer(text.replace("\\\n", " "))
        for flag in _FLAG.findall(m.group(2))
    }


REFS = references()
TABLE_NAMES = table_names((ROOT / "DESIGN.md").read_text())
FLAGS = set().union(*(flag_uses((ROOT / doc).read_text()) for doc in DOCS))
SUBPARSERS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


def _is_option(subcommand: str, flag: str) -> bool:
    parser = SUBPARSERS.get(subcommand)
    return parser is not None and flag in parser._option_string_actions


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _exists(ref: str) -> bool:
    path = ref.split("::")[0]  # a pytest id names its file
    # ``{2,4}`` (one-character alternatives) as the glob class ``[24]``
    pattern = re.sub(r"\{([^}]*)\}", lambda m: "[" + m.group(1).replace(",", "") + "]", path)
    return any(ROOT.glob(pattern))


def test_the_docs_name_something_of_each_kind():
    """The extraction is not vacuous."""
    assert len(REFS["name"]) > 40 and len(REFS["path"]) > 80 and len(REFS["subcommand"]) > 5
    assert len(FLAGS) > 50
    assert len(TABLE_NAMES) > 10


@pytest.mark.parametrize("name", sorted(REFS["name"]))
def test_dotted_name_imports(name):
    assert _resolves(name), f"{name} is named in the docs but does not import"


@pytest.mark.parametrize("name", sorted(TABLE_NAMES))
def test_artifact_table_name_imports(name):
    assert _resolves(name), f"{name} is named in DESIGN's artifact table but does not import"


@pytest.mark.parametrize("path", sorted(REFS["path"]))
def test_path_exists(path):
    assert _exists(path), f"{path} is named in the docs but does not exist"


def test_subcommands_are_cli_commands():
    assert REFS["subcommand"] <= set(SUBPARSERS), REFS["subcommand"] - set(SUBPARSERS)


@pytest.mark.parametrize("subcommand,flag", sorted(FLAGS))
def test_flag_is_an_option_of_its_subcommand(subcommand, flag):
    assert _is_option(subcommand, flag), f"`repro {subcommand} {flag}` is in the docs"


def test_a_removed_name_goes_red():
    """Negative controls: what a deletion would leave in the docs."""
    assert not _resolves("repro.vmpi.world.VirtualWorld.abandon_inflight")
    assert not _resolves("repro.no_such_module")
    # a row as DESIGN's table wrote it before the writer moved out of
    # the package namespace, and a metric name that only looks relative
    row = (
        "| artifact (format tag) | writer |\n|---|---|\n"
        "| span log | `obs.export_spans_jsonl` · `trace --spans-out` · `cgyro_x.rhs_s` |\n"
    )
    assert table_names(row) == {"repro.obs.export_spans_jsonl"}
    assert not _resolves("repro.obs.export_spans_jsonl")
    assert _resolves("repro.obs.export.export_spans_jsonl")
    assert not _exists("tests/census/never_entered.txt")
    assert not _exists("tests/test_no_such_file.py::TestRecords")
    assert _exists("tests/goldens/oracle_nl03c_k{2,4}.json")
    uses = flag_uses("    python -m repro serve --smoke \\\n        --no-such-flag\n")
    assert uses == {("serve", "--smoke"), ("serve", "--no-such-flag")}
    assert [u for u in uses if not _is_option(*u)] == [("serve", "--no-such-flag")]
