"""Docs that can go red: every code name README, DESIGN and EXPERIMENTS
put in backticks still names something.

Three kinds are checked, in inline code spans (fenced blocks are
examples, not references):

- a dotted ``repro.*`` name imports, down to its last attribute;
- a path under ``src/``, ``tests/``, ``benchmarks/``, ``hostbench/`` or
  ``examples/`` exists (a glob or ``{a,b}`` pattern matches a file;
  a ``file::name`` pytest id needs its file: a historical rename may
  name a test that is gone);
- a ``repro <subcommand>`` is a subcommand of the CLI.

A change that deletes or renames code therefore has to fix the prose
that named it.
"""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path
from typing import Dict, Set

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
PATH_ROOTS = ("src/", "tests/", "benchmarks/", "hostbench/", "examples/")

_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")
_SUBCOMMAND = re.compile(r"(?<![\w./-])repro ([a-z][\w-]*)")


def references() -> Dict[str, Set[str]]:
    """{"name" | "path" | "subcommand": the references of that kind}."""
    found: Dict[str, Set[str]] = {"name": set(), "path": set(), "subcommand": set()}
    for doc in DOCS:
        for span in _SPAN.findall(_FENCE.sub("", (ROOT / doc).read_text())):
            found["name"].update(m.group() for m in _NAME.finditer(span))
            found["subcommand"].update(m.group(1) for m in _SUBCOMMAND.finditer(span))
            found["path"].update(tok for tok in span.split() if tok.startswith(PATH_ROOTS))
    return found


REFS = references()


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


@pytest.mark.parametrize("name", sorted(REFS["name"]))
def test_dotted_name_imports(name):
    assert _resolves(name), f"{name} is named in the docs but does not import"


@pytest.mark.parametrize("path", sorted(REFS["path"]))
def test_path_exists(path):
    assert _exists(path), f"{path} is named in the docs but does not exist"


def test_subcommands_are_cli_commands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert REFS["subcommand"] <= set(sub.choices), REFS["subcommand"] - set(sub.choices)


def test_a_removed_name_goes_red():
    """Negative controls: what a deletion would leave in the docs."""
    assert not _resolves("repro.vmpi.world.VirtualWorld.abandon_inflight")
    assert not _resolves("repro.no_such_module")
    assert not _exists("tests/census/never_entered.txt")
    assert not _exists("tests/test_no_such_file.py::TestRecords")
    assert _exists("tests/goldens/oracle_nl03c_k{2,4}.json")
