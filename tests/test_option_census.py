"""Every option of the runner stack has a caller.

An *option* is a parameter with a default on one of the constructors /
entry points in :data:`STACK` (for a dataclass, a field with a
default).  This census walks every call in what people actually run —
``src/``, ``benchmarks/``, ``hostbench/``, ``examples/``; never
``tests/`` — and demands that each option is bound by at least one of
them, positionally, by keyword, or through a ``**kwargs`` dict spelled
in the same file.  The only way around it is :data:`ALLOWED`: safety
configuration kept at the leaf that enforces it, each entry naming the
property it guards.  An allow-listed option that gains a caller fails
too, so the list only ever shrinks by decision.

Pure ``ast``: nothing is imported from ``repro``.  Counting rule and
the per-callable table: EXPERIMENTS.md, "Option census (PR 22)".
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Where a call counts as a caller.
RUN_DIRS = ("src", "benchmarks", "hostbench", "examples")

#: The stack, top to bottom: callable -> the file that defines it.
STACK = {
    # service / campaign control plane
    "OnlineService": "src/repro/service/loop.py",
    "recover_service": "src/repro/service/journal.py",
    "ServiceJournal": "src/repro/service/journal.py",
    "ElasticNodePool": "src/repro/service/pool.py",
    "WindowPolicy": "src/repro/service/window.py",
    "CampaignRunner": "src/repro/campaign/runner.py",
    "CampaignPacker": "src/repro/campaign/packer.py",
    "CmatCache": "src/repro/campaign/cache.py",
    # resilience
    "ResilientXgyroRunner": "src/repro/resilience/runner.py",
    "shrink_and_recover": "src/repro/resilience/recovery.py",
    "CheckpointStore": "src/repro/resilience/checkpoint.py",
    "RecoveryPolicy": "src/repro/resilience/triage.py",
    "RetryPolicy": "src/repro/resilience/health.py",
    "NodeHealthTracker": "src/repro/resilience/health.py",
    "StragglerDetector": "src/repro/resilience/health.py",
    # ensemble drivers and the world under them
    "XgyroEnsemble": "src/repro/xgyro/driver.py",
    "XgyroStudy": "src/repro/xgyro/study.py",
    "SequentialCgyroBaseline": "src/repro/xgyro/baseline.py",
    "SharedCmatScheme": "src/repro/xgyro/shared_cmat.py",
    "VirtualWorld": "src/repro/vmpi/world.py",
    # oracles, scenarios, reports
    "differential_oracle": "src/repro/check/oracle.py",
    "resilient_differential_oracle": "src/repro/check/oracle.py",
    "run_scenario": "src/repro/check/invariants.py",
    "figure2_comparison": "src/repro/perf/report.py",
    # autotuner
    "Planner": "src/repro/plan/planner.py",
    "run_choice": "src/repro/plan/planner.py",
    "validate_plan": "src/repro/plan/planner.py",
    "oracle_plan": "src/repro/plan/planner.py",
    "anneal": "src/repro/plan/anneal.py",
    "enumerate_candidates": "src/repro/plan/space.py",
    "node_subsets": "src/repro/plan/space.py",
    # monitoring plane
    "ServiceMonitor": "src/repro/obs/monitor.py",
    "extract_critical_path": "src/repro/obs/critical.py",
    "render_telemetry_report": "src/repro/obs/critical.py",
}

#: Options no run sets that stay anyway: safety configuration, at the
#: leaf that enforces it.  (callable, option) -> the property it guards.
ALLOWED = {
    ("ResilientXgyroRunner", "policy"):
        "degrade-vs-abort decision of shrink-and-recover; the only "
        "hook through which RecoveryPolicy reaches a run",
    ("RecoveryPolicy", "min_surviving_members"):
        "floor below which a shrunk ensemble aborts instead of limping on",
    ("RecoveryPolicy", "max_recoveries"):
        "bound on the recover-and-replay loop of one run",
    ("OnlineService", "retry"):
        "attempt cap on the service's requeue loop; the only way a "
        "dead-letter path is reachable (test_service_loop, test_service_chaos)",
    ("OnlineService", "node_faults"):
        "the only way a data-plane fault reaches a service job",
    ("RetryPolicy", "backoff_factor"):
        "growth of the backoff that keeps a flapping request off the queue",
    ("RetryPolicy", "max_backoff_s"):
        "cap on that backoff: a retry is never parked forever",
    ("recover_service", "resume_delay_s"):
        "detection + restart downtime of a crashed control plane; "
        "exactly-once recovery must hold for any value",
    ("CmatCache", "capacity_bytes"):
        "memory bound on the warm-tensor cache; its `evictions` count "
        "is in pinned campaign bytes",
    ("resilient_differential_oracle", "overlap"):
        "the oracle that certifies a rank dying under an in-flight "
        "nonblocking collective still recovers bit-identically",
}


# ----------------------------------------------------------------------
# the census
# ----------------------------------------------------------------------
def _signature(node: ast.AST) -> Tuple[List[str], List[str]]:
    """(parameters in positional order, those with a default)."""
    if isinstance(node, ast.ClassDef):
        init = next(
            (
                n
                for n in node.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__"
            ),
            None,
        )
        if init is None:
            # a dataclass: annotated fields are its parameters (a plain
            # class without __init__ simply has none)
            fields = [
                n
                for n in node.body
                if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
            ]
            return (
                [f.target.id for f in fields],
                [f.target.id for f in fields if f.value is not None],
            )
        node = init
    a = node.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    options = positional[len(positional) - len(a.defaults):] if a.defaults else []
    options = options + [
        kw.arg for kw, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
    ]
    return positional + [kw.arg for kw in a.kwonlyargs], options


def _dict_keys(node: ast.AST) -> "Set[str] | None":
    """String keys of a ``{...}`` / ``dict(k=...)`` literal, else None."""
    if isinstance(node, ast.Dict):
        keys = [k for k in node.keys if k is not None]
        if all(isinstance(k, ast.Constant) and isinstance(k.value, str) for k in keys):
            return {k.value for k in keys}
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
        and not node.args
    ):
        return {k.arg for k in node.keywords if k.arg is not None}
    return None


def census(
    sources: Dict[str, str], stack: Dict[str, str]
) -> Dict[str, Dict[str, List[str]]]:
    """{callable: {option: [call sites binding it]}} over ``sources``
    (path -> text).  A ``**name`` argument binds the keys of every dict
    literal in the same file whose keys are all parameters of the
    callee; anything it cannot resolve binds nothing — the census errs
    towards "no caller"."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    params: Dict[str, List[str]] = {}
    found: Dict[str, Dict[str, List[str]]] = {}
    for name, path in stack.items():
        node = next(
            (
                n
                for n in trees[path].body
                if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name
            ),
            None,
        )
        assert node is not None, f"{name} is not defined in {path}"
        params[name], options = _signature(node)
        found[name] = {o: [] for o in options}
    for path, tree in trees.items():
        literals = [
            keys for n in ast.walk(tree) if (keys := _dict_keys(n)) is not None
        ]
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = (
                f.id
                if isinstance(f, ast.Name)
                else f.attr
                if isinstance(f, ast.Attribute)
                else None
            )
            if name not in found:
                continue
            bound: Set[str] = set()
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    break
                bound.update(params[name][i : i + 1])
            for kw in call.keywords:
                if kw.arg is not None:
                    bound.add(kw.arg)
                    continue
                keys = _dict_keys(kw.value)
                if keys is not None:
                    bound |= keys
                else:
                    for keys in literals:
                        if keys and keys <= set(params[name]):
                            bound |= keys
            for option in bound & set(found[name]):
                found[name][option].append(f"{path}:{call.lineno}")
    return found


@pytest.fixture(scope="module")
def binds() -> Dict[str, Dict[str, List[str]]]:
    sources = {
        p.relative_to(ROOT).as_posix(): p.read_text()
        for d in RUN_DIRS
        for p in sorted((ROOT / d).rglob("*.py"))
    }
    return census(sources, STACK)


# ----------------------------------------------------------------------
def test_every_option_has_a_caller_or_a_reason(binds):
    orphans = [
        f"{name}({option}=)"
        for name, options in binds.items()
        for option, sites in options.items()
        if not sites and (name, option) not in ALLOWED
    ]
    assert not orphans, (
        "options no run sets (give each a caller under "
        f"{'/, '.join(RUN_DIRS)}/ in the same PR, make it a constant, or "
        f"allow-list it with the safety property it guards): {orphans}"
    )


def test_the_allow_list_only_shrinks(binds):
    assert len(ALLOWED) <= 12
    for (name, option), reason in ALLOWED.items():
        assert reason.strip(), f"{name}({option}=) is allow-listed without a reason"
        assert option in binds[name], (
            f"{name}({option}=) is allow-listed but is no longer an option"
        )
        assert not binds[name][option], (
            f"{name}({option}=) gained a caller at {binds[name][option]}: "
            "take it off the allow-list"
        )


def test_the_surface_does_not_grow(binds):
    """A ratchet like CI's source-size one (EXPERIMENTS.md "Option
    census (PR 22)": 149 before): lower it with the surface, raise it
    only in a PR that says what the new option buys."""
    assert sum(len(options) for options in binds.values()) <= 102
    assert len(binds["OnlineService"]) <= 20


# ----------------------------------------------------------------------
# negative controls: the census can see, and can fail
# ----------------------------------------------------------------------
_LIB = '''
from dataclasses import dataclass

class Runner:
    def __init__(self, world, inputs=(), *, plan=None, dead=None, fed=1):
        pass

@dataclass
class Policy:
    floor: int
    cap: int = 3
    slack: float = 0.5

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


def test_census_counts_positionals_keywords_and_resolved_dicts():
    found = census(
        {"lib.py": _LIB, "app.py": _APP},
        {"Runner": "lib.py", "Policy": "lib.py", "drive": "lib.py"},
    )
    assert {o: bool(s) for o, s in found["Runner"].items()} == {
        "inputs": True,  # positional
        "plan": True,  # **common, every key a Runner parameter
        "fed": True,
        "dead": False,  # nobody: the orphan the gate exists for
    }
    assert {o: bool(s) for o, s in found["drive"].items()} == {
        "steps": True,  # positional
        "trace": True,  # attribute call, inline ** literal
    }
    assert {o: bool(s) for o, s in found["Policy"].items()} == {
        "cap": True,  # dataclass field bound positionally
        "slack": False,
    }
    assert "floor" not in found["Policy"]  # no default: not an option


def test_a_dict_with_a_foreign_key_binds_nothing():
    app = _APP.replace('common = dict(plan="p", fed=2)\n', "").replace(
        "**common", "**unrelated"
    )
    found = census({"lib.py": _LIB, "app.py": app}, {"Runner": "lib.py"})
    # colour= is no Runner parameter: `unrelated` is not its kwargs
    assert not found["Runner"]["plan"] and not found["Runner"]["fed"]
