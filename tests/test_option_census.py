"""Every option of every callable has a caller.

An *option* is a parameter with a default of a function, method or
class anywhere under ``src/repro/`` (for a dataclass or ``NamedTuple``,
a field with a default that ``__init__`` takes; ``field(init=False)``
run state is none).  Two kinds are out of scope: the fields of the file
formats — ``Record`` subclasses and ``CgyroInput``, whose values come
from files — and ``repro.cli.main(argv=)``.  This census walks every
call in what people actually run — ``src/``, ``benchmarks/``,
``hostbench/``, ``examples/``; never ``tests/`` — and demands that each
option is bound by at least one of them: positionally, by keyword, or
through a ``**kwargs`` dict spelled in the same file.

A call reaches callables by name: ``f(...)`` every function or class
named ``f``, ``x.f(...)`` every method, function or class named ``f``.
Four forms reach further: ``cls(...)`` the enclosing class,
``super().__init__(...)`` the base class's constructor,
``replace(obj, k=...)`` every dataclass that has all the keywords as
fields, and a local alias (``charge = w.a if c else w.b; charge(...)``)
every method it may name.  A class without its own ``__init__`` takes
its base's, and an inherited option belongs to the class that declares
it.  Matching by name errs towards "has a caller", an unresolvable
``**name`` towards "no caller".

The only way around the census is :data:`ALLOWED`, each entry with a
reason of :data:`REASONS`.  An allow-listed option that gains a caller
fails too, so the list only ever shrinks by decision.  Pure ``ast``:
nothing is imported from ``repro``.  Counting rule and the per-option
outcomes: EXPERIMENTS.md, "Option census, every callable (PR 35)".
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Where a call counts as a caller.
RUN_DIRS = ("src", "benchmarks", "hostbench", "examples")

#: Where the options live.
SCOPE = "src/repro/"

#: Classes whose fields (and their subclasses' fields) come from files.
FILE_FORMATS = frozenset({"Record", "CgyroInput"})

#: Options out of scope by name: the CLI's own argument vector.
OUT_OF_SCOPE = frozenset({("src/repro/cli.py::main", "argv")})

#: The only reasons an option may stay without a caller.
REASONS = {
    "safety": "a limit or hook kept at the leaf that enforces it; only a "
    "test drives the run into it",
    "reference": "the reference a test or golden compares the production "
    "path against",
}

#: Options no run sets that stay anyway: (callable, option) -> (a key of
#: REASONS, what it guards or is compared against).
ALLOWED: Dict[Tuple[str, str], Tuple[str, str]] = {
    ("src/repro/resilience/runner.py::ResilientXgyroRunner", "policy"): (
        "safety", "degrade-vs-abort decision of shrink-and-recover; the only "
        "hook through which RecoveryPolicy reaches a run"),
    ("src/repro/resilience/triage.py::RecoveryPolicy", "min_surviving_members"): (
        "safety", "floor below which a shrunk ensemble aborts instead of limping on"),
    ("src/repro/resilience/triage.py::RecoveryPolicy", "max_recoveries"): (
        "safety", "bound on the recover-and-replay loop of one run"),
    ("src/repro/service/loop.py::OnlineService", "retry"): (
        "safety", "attempt cap on the service's requeue loop; the only way a "
        "dead-letter path is reachable (test_service_loop, test_service_chaos)"),
    ("src/repro/service/loop.py::OnlineService", "node_faults"): (
        "safety", "the only way a data-plane fault reaches a service job"),
    ("src/repro/resilience/health.py::RetryPolicy", "backoff_factor"): (
        "safety", "growth of the backoff that keeps a flapping request off the queue"),
    ("src/repro/resilience/health.py::RetryPolicy", "max_backoff_s"): (
        "safety", "cap on that backoff: a retry is never parked forever"),
    ("src/repro/service/journal.py::recover_service", "resume_delay_s"): (
        "safety", "detection + restart downtime of a crashed control plane; "
        "exactly-once recovery must hold for any value"),
    ("src/repro/check/oracle.py::resilient_differential_oracle", "overlap"): (
        "safety", "the oracle that certifies a rank dying under an in-flight "
        "nonblocking collective still recovers bit-identically"),
    ("src/repro/campaign/runner.py::CampaignRunner.run", "max_rounds"): (
        "safety", "bound on the requeue loop against a fault-plan mapping that "
        "keeps killing retries"),
    ("src/repro/check/checker.py::CollectiveChecker.nb_post", "nbytes"): (
        "safety", "the cross-rank size match of a nonblocking post; "
        "run_programs passes it through **spec"),
    ("src/repro/check/checker.py::CollectiveChecker.nb_post", "op"): (
        "safety", "the cross-rank reduction-op match of a nonblocking post"),
    ("src/repro/check/checker.py::CollectiveChecker.nb_post", "dtype"): (
        "safety", "the cross-rank dtype match of a nonblocking post"),
    ("src/repro/check/checker.py::CollectiveChecker.nb_post", "site"): (
        "safety", "the program site a diagnosed nonblocking post names"),
    ("src/repro/collision/cmat.py::CmatWindow.__array__", "dtype"): (
        "safety", "NumPy's array protocol passes it: np.asarray(window, dtype)"),
    ("src/repro/collision/cmat.py::CmatWindow.__array__", "copy"): (
        "safety", "NumPy 2's array protocol passes copy= to __array__"),
    ("src/repro/perf/calibrate.py::calibrate_machine", "inp"): (
        "reference", "the fit frontier_like's constants are compared against: "
        "its input"),
    ("src/repro/perf/calibrate.py::calibrate_machine", "n_members"): (
        "reference", "the fit's ensemble size"),
    ("src/repro/perf/calibrate.py::calibrate_machine", "n_nodes"): (
        "reference", "the fit's node count"),
    ("src/repro/perf/calibrate.py::calibrate_machine", "mem_per_rank"): (
        "reference", "the fit's per-rank memory"),
    ("src/repro/perf/calibrate.py::calibrate_machine", "targets"): (
        "reference", "the paper's published timings the fit aims at"),
    ("src/repro/perf/calibrate.py::calibrate_machine", "x0"): (
        "reference", "the fit's starting point"),
    ("src/repro/vmpi/world.py::VirtualWorld.category_breakdown", "ranks"): (
        "reference", "how the world_books golden (tests/goldens/generate.py) "
        "reads each rank's category times"),
    ("src/repro/vmpi/world.py::VirtualWorld.category_breakdown", "reduce"): (
        "reference", "the golden's per-rank sum"),
    ("src/repro/campaign/request.py::RequestQueue.to_json", "path"): (
        "reference", "the artifact-bytes golden (tests/goldens/generate.py) "
        "writes its requests file through it"),
}


# ----------------------------------------------------------------------
# the definitions
# ----------------------------------------------------------------------
class Callable(NamedTuple):
    key: str  # "path::qualname"; a class's key names its constructor
    name: str  # what a call spells
    params: List[str]  # in positional order, self / cls dropped
    owners: Dict[str, str]  # option -> key of the callable declaring it


def _arguments(fn: ast.FunctionDef) -> Tuple[List[str], List[str]]:
    """(parameters in positional order, those with a default)."""
    a = fn.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    if positional[:1] in (["self"], ["cls"]) and not static:
        positional = positional[1:]
    options = positional[len(positional) - len(a.defaults):] if a.defaults else []
    options += [kw.arg for kw, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional + [kw.arg for kw in a.kwonlyargs], options


def _bases(node: ast.ClassDef) -> List[str]:
    return [b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))]


def _named(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return "NamedTuple" in _bases(node) or any(
        _named(d.func if isinstance(d, ast.Call) else d, "dataclass")
        for d in node.decorator_list)


def _field(stmt: ast.AnnAssign) -> Optional[bool]:
    """Whether a dataclass field has a default; None: not an
    ``__init__`` parameter (``ClassVar``, ``field(init=False)``)."""
    if "ClassVar" in ast.dump(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and _named(value.func, "field"):
        kw = {k.arg: k.value for k in value.keywords}
        if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
            return None
        return "default" in kw or "default_factory" in kw
    return value is not None


class Definitions:
    """Every callable defined in the sources under ``scope``.  Classes
    are known by name (a base class is named, not imported), so a class
    name may be defined only once."""

    def __init__(self, trees: Dict[str, ast.Module], scope: str) -> None:
        self.classes: Dict[str, Tuple[str, ast.ClassDef]] = {}  # name -> (key, node)
        functions: List[Tuple[str, ast.FunctionDef]] = []

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if child.name != "__init__":
                        functions.append((prefix + child.name, child))
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    assert child.name not in self.classes, f"class {child.name} defined twice"
                    self.classes[child.name] = (prefix + child.name, child)
                    walk(child, f"{prefix}{child.name}.")

        for path, tree in trees.items():
            if path.startswith(scope):
                walk(tree, f"{path}::")
        self._constructors: Dict[str, Callable] = {}
        self.callables = [self.constructor(name) for name in self.classes]
        for key, fn in functions:
            params, options = _arguments(fn)
            self.callables.append(Callable(key, fn.name, params, {o: key for o in options}))
        self.by_name: Dict[str, List[Callable]] = {}
        for c in self.callables:
            self.by_name.setdefault(c.name, []).append(c)

    def is_format(self, name: str) -> bool:
        """A file format: one of FILE_FORMATS or derived from one."""
        return name in FILE_FORMATS or (
            name in self.classes and any(self.is_format(b) for b in _bases(self.classes[name][1])))

    def constructor(self, name: str) -> Callable:
        """A class's constructor: its ``__init__``, its dataclass fields
        after its dataclass bases', or its first known base's."""
        if name in self._constructors:
            return self._constructors[name]
        key, node = self.classes[name]
        init = next((n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"), None)
        known = [b for b in _bases(node) if b in self.classes]
        params: List[str] = []
        owners: Dict[str, str] = {}
        if init is not None:
            params, options = _arguments(init)
            owners = {o: key for o in options}
        elif _is_dataclass(node):
            for base in known:
                if _is_dataclass(self.classes[base][1]):
                    inherited = self.constructor(base)
                    params, owners = list(inherited.params), dict(inherited.owners)
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    default = _field(stmt)
                    if default is None:
                        continue
                    if stmt.target.id not in params:
                        params.append(stmt.target.id)
                    owners.pop(stmt.target.id, None)
                    if default:
                        owners[stmt.target.id] = key
        elif known:
            inherited = self.constructor(known[0])
            params, owners = inherited.params, inherited.owners
        if self.is_format(name):
            owners = {o: k for o, k in owners.items() if k != key}
        self._constructors[name] = Callable(key, name, params, owners)
        return self._constructors[name]


# ----------------------------------------------------------------------
# the calls
# ----------------------------------------------------------------------
def _dict_keys(node: ast.AST) -> "Set[str] | None":
    """String keys of a ``{...}`` / ``dict(k=...)`` literal, else None."""
    if isinstance(node, ast.Dict):
        keys = [k for k in node.keys if k is not None]
        if all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in keys):
            return {k.value for k in keys}
    if isinstance(node, ast.Call) and _named(node.func, "dict") and not node.args:
        return {k.arg for k in node.keywords if k.arg is not None}
    return None


def _calls(tree: ast.Module) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every call of a module with the name of its enclosing class."""

    def walk(node: ast.AST, cls: Optional[str]) -> Iterator[Tuple[ast.Call, Optional[str]]]:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else cls
            if isinstance(child, ast.Call):
                yield child, cls
            yield from walk(child, inner)

    return walk(tree, None)


def _aliases(tree: ast.Module) -> Dict[str, Set[str]]:
    """``name = x.f`` / ``name = x.f if c else y.g``: name -> {f, g}."""
    out: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            v = node.value
            branches = [v.body, v.orelse] if isinstance(v, ast.IfExp) else [v]
            if all(isinstance(b, ast.Attribute) for b in branches):
                out.setdefault(node.targets[0].id, set()).update(b.attr for b in branches)
    return out


def census(sources: Dict[str, str], scope: str = SCOPE) -> Dict[str, Dict[str, List[str]]]:
    """{callable: {option: [call sites binding it]}} for every option
    defined under ``scope``, over the calls of ``sources`` (path -> text).
    A ``**name`` argument binds the keys of every dict literal in the
    same file whose keys are all parameters of the callee; anything else
    it cannot resolve binds nothing."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    defs = Definitions(trees, scope)
    found: Dict[str, Dict[str, List[str]]] = {}
    for c in defs.callables:
        for option, owner in c.owners.items():
            if owner == c.key and (owner, option) not in OUT_OF_SCOPE:
                found.setdefault(owner, {})[option] = []
    dataclasses_ = [defs.constructor(n) for n, (_, node) in defs.classes.items() if _is_dataclass(node)]
    for path, tree in trees.items():
        literals = [keys for n in ast.walk(tree) if (keys := _dict_keys(n)) is not None]
        aliases = _aliases(tree)
        for call, cls in _calls(tree):
            f = call.func
            keywords = {k.arg for k in call.keywords if k.arg is not None}
            if _named(f, "replace") and (isinstance(f, ast.Name) or _named(f.value, "dataclasses")):
                targets = [c for c in dataclasses_ if keywords and keywords <= set(c.params)]
                positional = False
            elif isinstance(f, ast.Name) and f.id == "cls" and cls in defs.classes:
                targets, positional = [defs.constructor(cls)], True
            elif (_named(f, "__init__") and isinstance(f.value, ast.Call)
                  and _named(f.value.func, "super") and cls in defs.classes):
                known = [b for b in _bases(defs.classes[cls][1]) if b in defs.classes]
                targets, positional = [defs.constructor(b) for b in known[:1]], True
            elif isinstance(f, (ast.Name, ast.Attribute)):
                name = f.id if isinstance(f, ast.Name) else f.attr
                targets = list(defs.by_name.get(name, []))
                for alias in aliases.get(name, ()) if isinstance(f, ast.Name) else ():
                    targets += defs.by_name.get(alias, [])
                positional = True
            else:
                continue
            for target in targets:
                bound = set(keywords)
                for i, arg in enumerate(call.args if positional else ()):
                    if isinstance(arg, ast.Starred):
                        break
                    bound.update(target.params[i : i + 1])
                for kw in call.keywords:
                    if kw.arg is None:
                        keys = _dict_keys(kw.value)
                        if keys is not None:
                            bound |= keys
                        else:
                            for keys in literals:
                                if keys and keys <= set(target.params):
                                    bound |= keys
                for option in bound & set(target.owners):
                    sites = found.get(target.owners[option], {}).get(option)
                    if sites is not None:
                        sites.append(f"{path}:{call.lineno}")
    return found


# ----------------------------------------------------------------------
# the verdicts
# ----------------------------------------------------------------------
def orphans(found: Dict[str, Dict[str, List[str]]], allowed=ALLOWED) -> List[str]:
    """Options without a caller or an allow-list entry."""
    return [f"{name}({option}=)" for name, options in found.items()
            for option, sites in options.items() if not sites and (name, option) not in allowed]


def stale(found: Dict[str, Dict[str, List[str]]], allowed=ALLOWED) -> List[str]:
    """Allow-list entries that are no option any more, or gained a caller,
    or carry no known reason."""
    out = []
    for (name, option), (reason, why) in allowed.items():
        if reason not in REASONS or not why.strip():
            out.append(f"{name}({option}=): reason {reason!r} is not one of {sorted(REASONS)}")
        elif option not in found.get(name, {}):
            out.append(f"{name}({option}=) is allow-listed but is no longer an option")
        elif found[name][option]:
            out.append(f"{name}({option}=) gained a caller at {found[name][option]}: "
                       "take it off the allow-list")
    return out


@pytest.fixture(scope="module")
def binds() -> Dict[str, Dict[str, List[str]]]:
    sources = {
        p.relative_to(ROOT).as_posix(): p.read_text()
        for d in RUN_DIRS
        for p in sorted((ROOT / d).rglob("*.py"))
    }
    return census(sources)


def test_every_option_has_a_caller_or_a_reason(binds):
    missing = orphans(binds)
    assert not missing, (
        "options no run sets (give each a caller under "
        f"{'/, '.join(RUN_DIRS)}/ in the same PR, make it a constant, or "
        f"allow-list it with a reason of REASONS): {missing}"
    )


def test_the_allow_list_only_shrinks(binds):
    assert len(ALLOWED) <= 25
    assert not stale(binds)


def test_the_surface_does_not_grow(binds):
    """A ratchet like CI's source-size one (EXPERIMENTS.md "Option
    census, every callable (PR 35)": 435 before, under the same rules):
    lower it with the surface, raise it only in a PR that says what the
    new option buys."""
    assert sum(len(options) for options in binds.values()) <= 366
    assert len(binds["src/repro/service/loop.py::OnlineService"]) <= 20


def test_the_file_formats_and_the_cli_argv_are_out_of_scope(binds):
    assert "src/repro/cgyro/params.py::CgyroInput" not in binds
    assert "src/repro/obs/span.py::Span" not in binds
    assert "argv" not in binds.get("src/repro/cli.py::main", {})


# ----------------------------------------------------------------------
# negative controls: the census can see, and can fail
# ----------------------------------------------------------------------
_LIB = '''
from dataclasses import dataclass, field

class Runner:
    def __init__(self, world, inputs=(), *, plan=None, dead=None, fed=1):
        pass

    def step(self, n, *, trace=False, spare=0):
        pass

    @classmethod
    def default(cls):
        return cls(None, plan="p")

class Fast(Runner):
    def __init__(self, world, *, gear=1):
        super().__init__(world, dead=True)

@dataclass
class Policy:
    floor: int
    cap: int = 3
    slack: float = 0.5
    hits: int = field(default=0, init=False)

class Record:
    pass

@dataclass
class Row(Record):
    name: str = ""

def drive(world, steps=1, *, trace=False):
    pass
'''

_APP = '''
from lib import Policy, Runner, drive

common = dict(plan="p", fed=2)
unrelated = dict(plan="p", colour="red")

def main(world):
    Runner(world, [1, 2], **common)
    drive(world, 4)
    mod.drive(world, **{"trace": True})
    Policy(1, 2)
'''

_TEST = '''
from lib import Runner

def test_step(world):
    Runner(world).step(1, spare=2)
'''


def _found(app: str = _APP, lib: str = _LIB) -> Dict[str, Dict[str, List[str]]]:
    return census({"lib.py": lib, "app.py": app}, scope="lib.py")


def _bound(found, name: str) -> Dict[str, bool]:
    return {o: bool(s) for o, s in found[f"lib.py::{name}"].items()}


def test_census_counts_positionals_keywords_and_resolved_dicts():
    found = _found()
    assert _bound(found, "Runner") == {
        "inputs": True,  # positional
        "plan": True,  # **common, every key a Runner parameter; and cls(...)
        "fed": True,
        "dead": True,  # super().__init__ in Fast (see below)
    }
    assert _bound(found, "drive") == {
        "steps": True,  # positional
        "trace": True,  # attribute call, inline ** literal
    }
    assert _bound(found, "Policy") == {
        "cap": True,  # dataclass field bound positionally
        "slack": False,
    }  # floor has no default, hits is run state: neither is an option


def test_a_dict_with_a_foreign_key_binds_nothing():
    app = _APP.replace('common = dict(plan="p", fed=2)\n', "").replace("**common", "**unrelated")
    lib = _LIB.replace('cls(None, plan="p")', "cls(None)").replace("dead=True", "")
    found = _found(app, lib)
    # colour= is no Runner parameter: `unrelated` is not its kwargs
    assert not found["lib.py::Runner"]["plan"] and not found["lib.py::Runner"]["fed"]


def test_a_method_option_only_a_test_binds_fails():
    found = census({"lib.py": _LIB, "app.py": _APP}, scope="lib.py")
    assert "lib.py::Runner.step(spare=)" in orphans(found, allowed={})
    # the same call counts once it is in what runs
    found = census({"lib.py": _LIB, "app.py": _APP + _TEST}, scope="lib.py")
    assert "lib.py::Runner.step(spare=)" not in orphans(found, allowed={})


def test_cls_binds_the_enclosing_class():
    found = _found(_APP.replace(", **common", ""))  # leaves Runner's plan= to cls(...)
    assert [s.split(":")[0] for s in found["lib.py::Runner"]["plan"]] == ["lib.py"]


def test_super_init_binds_the_base_class():
    found = _found()
    assert [s.split(":")[0] for s in found["lib.py::Runner"]["dead"]] == ["lib.py"]


def test_replace_binds_the_dataclass_fields_it_names():
    assert not _bound(_found(), "Policy")["slack"]
    replaced = _APP + "    replace(Policy(1), slack=0.1)\n"
    assert _bound(_found(replaced), "Policy")["slack"]


def test_a_call_through_a_local_alias_binds_the_method():
    assert not _bound(_found(), "Runner.step")["trace"]
    aliased = _APP + "    go = r.step if world else r.step\n    go(1, trace=True)\n"
    assert _bound(_found(aliased), "Runner.step")["trace"]


def test_a_record_field_is_out_of_scope():
    found = _found()
    assert "lib.py::Row" not in found  # a Record's field comes from a file
    assert "lib.py::Policy" in found


def test_an_allow_listed_option_that_gains_a_caller_fails():
    allowed = {("lib.py::Policy", "slack"): ("safety", "the cap's slack")}
    assert not stale(_found(), allowed)
    assert "lib.py::Policy(slack=)" not in orphans(_found(), allowed)
    replaced = _APP + "    Policy(1, slack=0.1)\n"
    assert stale(_found(replaced), allowed) == [
        "lib.py::Policy(slack=) gained a caller at ['app.py:12']: take it off the allow-list"
    ]
    assert stale(_found(), {("lib.py::Policy", "slack"): ("habit", "x")})
    assert stale(_found(), {("lib.py::Policy", "gone"): ("safety", "x")})
