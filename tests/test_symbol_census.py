"""Every symbol in ``src/`` has a caller.

A *symbol* is a top-level function or class of a module under ``src/``,
or a method of such a class whose name is not a dunder.  This census
walks what people actually run — ``src/``, ``benchmarks/``,
``hostbench/``, ``examples/``; never ``tests/`` — and demands that each
symbol's name is *referenced* there: read as a ``Name`` or an
``Attribute``, or spelled as a string — a ``getattr`` name, a
``record_derived`` field, or the last part of a dotted ``"repro...."``
name such as hostbench's ``TABLE`` wraps.  The symbol's own definition
(its body included) does not count, and neither does a re-export: an
import is no reference, and an ``__all__`` entry is not counted.  The
only way around it is :data:`ALLOWED`, each entry carrying one of the
reasons in :data:`REASONS`.  An allow-listed symbol that gains a caller
fails too, so the list only ever shrinks by decision.

It matches names, not bindings — a method counts as called when any
attribute of that name is read anywhere — so it is a lower bound on
dead code, never a false alarm.  Pure ``ast``: nothing is imported from
``repro``.  Counting rule and the deleted / allow-listed table:
EXPERIMENTS.md, "Symbol census (PR 26)".

The same walk holds *one import path per name* (DESIGN.md §Imports):
``src/`` imports each name from the module that defines it, never
through a package that only re-exports it; a package ``__init__``
re-exports only names that a file of :data:`RUN_DIRS` outside ``src/``
or a python block of README reaches through that package (an import,
an attribute ``repro.pkg.name``, or a dotted ``"repro.pkg.name"``
string such as hostbench's ``TABLE``); and no ``__init__`` has an
``__all__``, since its import lines already are the list.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Where a reference counts as a caller.
RUN_DIRS = ("src", "benchmarks", "hostbench", "examples")

#: The only reasons a symbol may stay without a caller.
REASONS = {
    "format": "loader or writer of a format the repo emits "
    "(the garbage-rejection surface of its file format)",
    "reference": "the reference a test compares the production path against",
    "entry": "test entry point used by at least ten tests",
}

#: Symbols no run references that stay anyway: "file.py:Class.method"
#: (or "file.py:function") -> (a key of REASONS, what it is for).
ALLOWED: Dict[str, Tuple[str, str]] = {
    "src/repro/cgyro/io.py:read_timing_csv": (
        "format", "reader of out.cgyro.timing, which write_timing_csv emits"),
    "src/repro/obs/export.py:load_spans_jsonl": (
        "format", "loader of the repro-spans-v1 log `repro trace --spans-out` writes"),
    "src/repro/obs/monitor.py:dump_rulebook": (
        "format", "writer of the rulebook format `repro monitor --rules` loads"),
    "src/repro/obs/monitor.py:load_rollups_jsonl": (
        "format", "loader of the rollup JSONL `repro monitor --rollups-out` writes"),
    "src/repro/resilience/faults.py:FaultPlan.to_file": (
        "format", "writer of the fault-plan file `--faults` loads"),
    "src/repro/service/journal.py:ServiceJournal.from_jsonl": (
        "format", "loader of the WAL text a journal writes"),
    "src/repro/service/journal.py:ServiceJournal.to_file": (
        "format", "writer of the WAL file CI's golden-WAL step uploads"),
    "src/repro/xgyro/input.py:write_ensemble": (
        "format", "writer of the input.xgyro manifest and member directories "
        "`repro run-xgyro` loads"),
    "src/repro/check/oracle.py:resilient_differential_oracle": (
        "reference", "runs fault-free baselines of the survivors that the "
        "fault-path tests compare a shrink-and-recover run against"),
    "src/repro/plan/planner.py:oracle_plan": (
        "reference", "runs the per-member baselines a tuned plan's job (node "
        "subset, unbalanced nc split) is compared against bit for bit; the "
        "only caller of differential_oracle(n_ranks=, nc_counts=)"),
    "src/repro/grid/layouts.py:scatter_global": (
        "reference", "direct slicing the transpose tests compare "
        "transpose_str_to_coll / _to_nl against"),
    "src/repro/grid/layouts.py:gather_global": (
        "reference", "inverse of scatter_global, the round-trip reference"),
    "src/repro/perf/calibrate.py:calibrate_machine": (
        "reference", "the fit frontier_like's constants are compared against"),
    "src/repro/vmpi/world.py:VirtualWorld.comm_world": (
        "entry", "the world communicator most vmpi and checker tests start from"),
    "src/repro/vmpi/cost.py:CommCostModel.effective_link": (
        "entry", "the link a rank group sees, read by the cost-model, "
        "topology and heterogeneity tests"),
    "src/repro/vmpi/world.py:VirtualWorld.category_breakdown": (
        "entry", "how the world_books golden and the block-books tests read "
        "every rank's category times"),
}

_NAMED = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")


# ----------------------------------------------------------------------
# the census
# ----------------------------------------------------------------------
def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def symbols(path: str, tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """(key, name, node) of every top-level function / class of a
    module and every non-dunder method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{path}:{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not _is_dunder(item.name):
                    yield f"{path}:{node.name}.{item.name}", item.name, item


def _exported(tree: ast.Module) -> Set[int]:
    """ids of the string constants listed in ``__all__``."""
    return {
        id(elt)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
    }


def references(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(name, line) of every name a module reads."""
    exported = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in exported
            and _NAMED.match(node.value)
        ):
            yield node.value.rsplit(".", 1)[-1], node.lineno


def census(sources: Dict[str, str], defined_in: str = "src/") -> Dict[str, List[str]]:
    """{symbol key: [referencing sites]} over ``sources`` (path -> text)
    for every symbol of a file under ``defined_in``."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    found: Dict[str, List[str]] = {}
    spans: Dict[str, Tuple[str, int, int]] = {}
    by_name: Dict[str, List[str]] = {}
    for path, tree in trees.items():
        if not path.startswith(defined_in):
            continue
        for key, name, node in symbols(path, tree):
            found[key] = []
            spans[key] = (path, node.lineno, node.end_lineno)
            by_name.setdefault(name, []).append(key)
    for path, tree in trees.items():
        for name, line in references(tree):
            for key in by_name.get(name, ()):
                own_path, first, last = spans[key]
                if path == own_path and first <= line <= last:
                    continue  # its own definition, recursion included
                found[key].append(f"{path}:{line}")
    return found


def _sources() -> Dict[str, str]:
    return {
        p.relative_to(ROOT).as_posix(): p.read_text()
        for d in RUN_DIRS
        for p in sorted((ROOT / d).rglob("*.py"))
    }


def _readme_blocks() -> List[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)


@pytest.fixture(scope="module")
def callers() -> Dict[str, List[str]]:
    return census(_sources())


# ----------------------------------------------------------------------
def test_every_symbol_has_a_caller_or_a_reason(callers):
    orphans = sorted(k for k, sites in callers.items() if not sites and k not in ALLOWED)
    assert not orphans, (
        "symbols nothing under "
        f"{'/, '.join(RUN_DIRS)}/ references (delete each with its tests, "
        f"or allow-list it under one of {sorted(REASONS)}): {orphans}"
    )


def test_the_allow_list_only_shrinks(callers):
    assert len(ALLOWED) <= 16
    for key, (reason, what) in ALLOWED.items():
        assert reason in REASONS and what.strip(), f"{key}: no valid reason"
        assert key in callers, f"{key} is allow-listed but no longer defined"
        assert not callers[key], (
            f"{key} gained a caller at {callers[key]}: take it off the allow-list"
        )


# ----------------------------------------------------------------------
# one import path per name
# ----------------------------------------------------------------------
def _module_of(path: str) -> str:
    """``src/repro/vmpi/world.py`` -> ``repro.vmpi.world``; an
    ``__init__.py`` names its package."""
    parts = path[len("src/") : -len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defines(tree: ast.Module) -> Set[str]:
    """Names a module's own top-level definitions bind (imports aside)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _through(tree: ast.Module, packages: Set[str]) -> Iterator[Tuple[str, str, int]]:
    """(package, name, line) of every name a module reaches through a
    package: ``from pkg import name``, ``repro.pkg.name`` or a dotted
    ``"repro.pkg.name"`` string (the longest package prefix is the path)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module in packages:
                for alias in node.names:
                    yield node.module, alias.name, node.lineno
            continue
        if isinstance(node, ast.Attribute):
            parts, inner = [], node
            while isinstance(inner, ast.Attribute):
                parts.append(inner.attr)
                inner = inner.value
            if not (isinstance(inner, ast.Name) and inner.id == "repro"):
                continue
            dotted = ["repro", *reversed(parts)]
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("repro.")
            and _NAMED.match(node.value)
        ):
            dotted = node.value.split(".")
        else:
            continue
        for cut in range(len(dotted) - 1, 0, -1):
            if ".".join(dotted[:cut]) in packages:
                yield ".".join(dotted[:cut]), dotted[cut], node.lineno
                break


def import_path_findings(sources: Dict[str, str], readme_blocks: List[str]) -> List[str]:
    """Every import through a package that breaks the one-path rule."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    trees.update((f"README.md#{i}", ast.parse(b)) for i, b in enumerate(readme_blocks))
    modules = {_module_of(p): p for p in trees if p.startswith("src/")}
    packages = {m for m, p in modules.items() if p.endswith("/__init__.py")}
    findings: List[str] = []
    outside: Set[Tuple[str, str]] = set()
    for path, tree in trees.items():
        for package, name, line in _through(tree, packages):
            if f"{package}.{name}" in modules:
                continue  # a submodule, not a re-export
            if path.startswith("src/"):
                if name not in _defines(trees[modules[package]]):
                    findings.append(f"{path}:{line}: {name} through {package}, which does not define it")
            elif path.split("/")[0] in RUN_DIRS or path.startswith("README.md#"):
                outside.add((package, name))
    for package in sorted(packages):
        path = modules[package]
        for node in trees[path].body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                findings.append(f"{path}:{node.lineno}: an __all__")
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    name = alias.asname or alias.name
                    if not _is_dunder(name) and (package, name) not in outside:
                        findings.append(
                            f"{path}:{node.lineno}: re-exports {name}, which nothing "
                            f"outside src/ and tests/ reaches through {package}"
                        )
    return findings


def test_one_import_path_per_name():
    """A dunder such as ``__version__`` is the package's own metadata,
    not a re-export."""
    findings = import_path_findings(_sources(), _readme_blocks())
    assert not findings, (
        "import each name from the module that defines it, and re-export from a "
        f"package only what a run imports through it: {findings}"
    )


# ----------------------------------------------------------------------
# negative controls: the census can see, and can fail
# ----------------------------------------------------------------------
_LIB = '''
class Comm:
    def allreduce(self, x):
        return x

    def barrier(self):
        return self.barrier()

    def probe(self):
        return 0

    def __len__(self):
        return 0

def helper():
    pass

def traced():
    pass
'''

_APP = '''
from lib import Comm, helper

__all__ = ["helper"]
TABLE = ("repro.lib.traced",)

def main(comm):
    comm.allreduce(1)
    return getattr(comm, "probe")()
'''


def test_census_counts_names_attributes_and_strings():
    found = census({"src/lib.py": _LIB, "src/app.py": _APP})
    has = {key.split(":")[1]: bool(sites) for key, sites in found.items()}
    assert has == {
        "Comm": False,  # imported only: an import is not a call
        "Comm.allreduce": True,  # attribute read in another module
        "Comm.barrier": False,  # only its own body calls it
        "Comm.probe": True,  # a getattr name
        "helper": False,  # imported and listed in __all__: a re-export
        "traced": True,  # a dotted "repro...." string
        "main": False,
    }


def test_an_uncalled_method_on_the_real_tree_is_an_orphan():
    """Negative control: a ``Communicator.barrier`` nobody calls is what
    the first test would name."""
    sources = _sources()
    path = "src/repro/vmpi/communicator.py"
    sources[path] = sources[path].replace(
        "    def allreduce(\n",
        "    def barrier(self) -> None:\n        pass\n\n    def allreduce(\n",
        1,
    )
    assert census(sources)[f"{path}:Communicator.barrier"] == []


# ----------------------------------------------------------------------
# negative controls: each one-path rule can fail
# ----------------------------------------------------------------------
_OWN = "\n\nclass Own:\n    pass\n"
_PKG = {
    "src/repro/__init__.py": "from repro._version import __version__\n",
    "src/repro/_version.py": "__version__ = '1'\n",
    "src/repro/pkg/__init__.py": "from repro.pkg.mod import Kept" + _OWN,
    "src/repro/pkg/mod.py": "class Kept:\n    pass\n\nclass Spare:\n    pass\n",
    "src/repro/app.py": "from repro import pkg\nfrom repro.pkg import Own\nfrom repro.pkg.mod import Kept\n",
    "benchmarks/bench.py": "from repro.pkg import Kept\n",
}
_INIT = "src/repro/pkg/__init__.py"


def _findings(edits: Dict[str, str], readme_blocks: List[str] = ()) -> List[str]:
    return import_path_findings({**_PKG, **edits}, list(readme_blocks))


def test_a_clean_synthetic_tree_has_no_findings():
    """A submodule, a name the package defines, a dunder: none is a finding."""
    assert _findings({}) == []


def test_a_src_import_through_a_package_is_a_finding():
    found = _findings({"src/repro/app.py": "from repro.pkg import Kept\n"})
    assert found == ["src/repro/app.py:1: Kept through repro.pkg, which does not define it"]


def test_an_unimported_re_export_is_a_finding():
    assert _findings({_INIT: "from repro.pkg.mod import Kept, Spare" + _OWN}) == [
        "src/repro/pkg/__init__.py:1: re-exports Spare, which nothing "
        "outside src/ and tests/ reaches through repro.pkg"
    ]


def test_an_all_is_a_finding():
    init = "from repro.pkg.mod import Kept\n__all__ = ['Kept']" + _OWN
    assert _findings({_INIT: init}) == ["src/repro/pkg/__init__.py:2: an __all__"]


def test_each_importer_form_keeps_a_re_export():
    """An import, an attribute and a dotted string outside ``src/``, or a
    README python block; a test does not count."""
    spare = {_INIT: "from repro.pkg.mod import Kept, Spare" + _OWN}
    importers = {
        "hostbench/trace.py": 'TABLE = {"x": "repro.pkg.Spare.method"}\n',
        "examples/use.py": "import repro.pkg\nrepro.pkg.Spare()\n",
        "benchmarks/other.py": "from repro.pkg import Spare\n",
    }
    for path, text in importers.items():
        assert _findings({**spare, path: text}) == [], path
    assert _findings(spare, ["from repro.pkg import Spare\n"]) == []
    assert len(_findings({**spare, "tests/test_pkg.py": "from repro.pkg import Spare\n"})) == 1
