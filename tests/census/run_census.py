"""Statement census: which ``src/`` statements run outside the tests.

Runs every command of :func:`commands` — what CI runs, plus each CLI
command and option path no CI step reaches — with ``sitecustomize.py``
beside this file on ``PYTHONPATH``, so every process records the
``src/`` functions it enters and the ``src/`` lines it runs (hostbench
children and CLI subprocesses included).  Then it diffs those records
against an ``ast`` walk of every function and method under ``src/``::

    PYTHONPATH=src python tests/census/run_census.py [--dir DIR] [--skip-run]

A function is *never entered* when no process called it; only the
outermost one counts (a nested function is listed only when its
enclosing function ran its ``def``).  Inside an entered function a
statement is *unreached* when none of its lines ran, counted once at
the outermost unreached statement.  Refusals are not counted: ``raise``
and ``assert`` statements, a block that ends in ``raise``, an ``if``
whose only branch raises, and ``except`` bodies.  The ratchet is
``never_reached.txt`` beside this file, one ``src/file.py::qualname
lines reason`` line per function — a never-entered one with its body
lines, an entered one with its unreached lines — each reason a key of
:data:`REASONS`.  The census fails when a command exits with another
code than it should or prints less than it must, when a function with
unreached lines is not listed, when a listed one is reached or gone,
or when an entry's line count or reason is wrong — so the list only
shrinks by decision.  Each command's stdout is kept under
``DIR/stdout/`` for comparing two trees.  Method, command list and
counts: EXPERIMENTS.md, "Statement census".
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
LISTED = HERE / "never_reached.txt"

#: one BLAS thread per process, as hostbench runs its children
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(ROOT))
from tests.test_symbol_census import REASONS as SYMBOL_REASONS  # noqa: E402

#: Why an unreached function or branch may stay: the symbol census's
#: reasons, plus bodies that only refuse, edge cases and branches that
#: report a defect.
REASONS = {
    **SYMBOL_REASONS,
    "refusal": "raises an error for a state or input no command reaches",
    "edge": "an edge case no command's input reaches (a guard for empty "
    "input, a fault landing mid-job)",
    "diagnosis": "reports a defect (a lint problem, a failed cross-check, "
    "a fault counter)",
}


# ----------------------------------------------------------------------
# the diff
# ----------------------------------------------------------------------
class Function(NamedTuple):
    key: str  # "src/file.py::qualname"
    first: int  # first line: the first decorator's, else the def's
    lines: int  # body lines, def line through last line
    parent: Optional[str]  # key of the nearest enclosing function
    node: ast.AST  # the def


def functions(path: str, tree: ast.Module) -> Iterator[Function]:
    """Every function and method of a module, nested ones included."""

    def walk(node: ast.AST, prefix: str, parent: Optional[str]) -> Iterator[Function]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{path}::{prefix}{child.name}"
                yield Function(key, _first(child), child.end_lineno - child.lineno + 1,
                               parent, child)
                yield from walk(child, f"{prefix}{child.name}.<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", parent)
            else:
                yield from walk(child, prefix, parent)

    return walk(tree, "", None)


def _first(stmt: ast.stmt) -> int:
    return min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])


def _no_code(stmt: ast.stmt) -> bool:
    """``pass``, ``global``, ``nonlocal`` and docstrings compile to no
    line of their own, so they never report one."""
    return isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
    )


def _raises(block: List[ast.stmt]) -> bool:
    return bool(block) and isinstance(block[-1], ast.Raise)


def _refusal(stmt: ast.stmt) -> bool:
    """A statement that only refuses: ``raise``, ``assert``, or an
    ``if`` guard (``elif`` chain included) whose branches all end in
    ``raise``."""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    return isinstance(stmt, ast.If) and _raises(stmt.body) and (
        not stmt.orelse or _raises(stmt.orelse)
        or (len(stmt.orelse) == 1 and _refusal(stmt.orelse[0]))
    )


def _children(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    """The statement blocks a statement runs itself — not a nested
    def's or class's body, and not ``except`` bodies."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if block:
            yield block
    for case in getattr(stmt, "cases", ()):
        yield case.body


def _excluded(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Every refusal, raising block, ``except`` handler and no-code
    statement inside ``stmt``, itself included."""
    if _no_code(stmt) or _refusal(stmt):
        yield stmt
        return
    yield from getattr(stmt, "handlers", ())
    for block in _children(stmt):
        if _raises(block):
            yield from block
        else:
            for child in block:
                yield from _excluded(child)


def unreached_lines(fn: ast.AST, ran: Set[int], source: List[str]) -> Set[int]:
    """The non-refusal lines of ``fn``'s outermost unreached statements.

    A statement ran when any of its lines did (CPython may attribute a
    multi-line statement's first instruction to a later line).  An
    unreached one counts its span once, less blank and comment lines
    and the refusals inside it; a reached one is opened and its blocks
    walked in turn.  A block that ends in ``raise`` is skipped whole."""
    out: Set[int] = set()

    def span(node: ast.AST) -> Set[int]:
        return set(range(_first(node), node.end_lineno + 1))

    def block(stmts: List[ast.stmt]) -> None:
        if _raises(stmts):
            return
        for stmt in stmts:
            if _no_code(stmt) or _refusal(stmt):
                continue
            if ran.isdisjoint(span(stmt)):
                lines = span(stmt)
                for node in _excluded(stmt):
                    lines -= span(node)
                out.update(n for n in lines if source[n - 1].strip()[:1] not in ("", "#"))
            else:
                for child in _children(stmt):
                    block(child)

    block(fn.body)
    return out


def never_reached(
    sources: Dict[str, str], entered: Set[Tuple[str, int]], ran: Dict[str, Set[int]]
) -> Dict[str, int]:
    """{key: lines} of ``sources`` (path -> text): each outermost
    never-entered function (``(path, first line)`` not in ``entered``)
    with its body lines, and each entered one with unreached lines
    (``ran``: path -> the lines that ran) with their count."""
    found: Dict[str, int] = {}
    for path, text in sources.items():
        source = text.splitlines()
        lines_ran = ran.get(path, set())
        entered_fn = {}
        for fn in functions(path, ast.parse(text)):
            entered_fn[fn.key] = (path, fn.first) in entered
            if entered_fn[fn.key]:
                count = len(unreached_lines(fn.node, lines_ran, source))
                if count:
                    found[fn.key] = count
            elif fn.parent is None or (
                entered_fn[fn.parent]
                and not lines_ran.isdisjoint(range(fn.first, fn.node.end_lineno + 1))
            ):
                # a nested def whose own line never ran is an unreached
                # statement of its parent, not a function anything could call
                found[fn.key] = fn.lines
    return found


def read_listed(text: str) -> Dict[str, Tuple[int, str]]:
    """``never_reached.txt`` as {key: (lines, reason)}."""
    listed = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, lines, reason = line.split()
            listed[key] = (int(lines), reason)
    return listed


def problems(found: Dict[str, int], listed: Dict[str, Tuple[int, str]]) -> List[str]:
    """What is wrong with the committed list, one line each."""
    out = []
    for key, lines in sorted(found.items()):
        if key not in listed:
            out.append(f"unreached and not listed (reach it from a command, delete "
                       f"it, or list it with one of {sorted(REASONS)}):\n  {key} {lines} ?")
        elif listed[key][0] != lines:
            out.append(f"listed with {listed[key][0]} lines, has {lines}: {key}")
    for key, (_, reason) in sorted(listed.items()):
        if key not in found:
            out.append(f"listed but reached or gone (take it off the list): {key}")
        if reason not in REASONS:
            out.append(f"{key}: reason {reason!r} is not one of {sorted(REASONS)}")
    return out


def read_runs(directory: Path) -> Tuple[Set[Tuple[str, int]], Dict[str, Set[int]]]:
    """Every process dump under ``directory/entered``, merged: the
    entered ``(path, first line)`` pairs and {path: lines that ran}."""
    entered: Set[Tuple[str, int]] = set()
    ran: Dict[str, Set[int]] = {}
    for dump in directory.glob("entered/*.json"):
        record = json.loads(dump.read_text())
        entered.update((path, line) for path, line in record["entered"])
        for path, lines in record["lines"].items():
            ran.setdefault(path, set()).update(lines)
    return entered, ran


def src_sources() -> Dict[str, str]:
    return {
        p.relative_to(ROOT).as_posix(): p.read_text()
        for p in sorted((ROOT / "src").rglob("*.py"))
    }


# ----------------------------------------------------------------------
# the command list
# ----------------------------------------------------------------------
class Command(NamedTuple):
    argv: List[str]
    exit_code: int = 0
    expect: str = ""  # what its stdout must hold


def _repro(*argv: str, exit_code: int = 0, expect: str = "") -> Command:
    return Command([sys.executable, "-m", "repro", *argv], exit_code, expect)


def _python(*argv: str) -> Command:
    return Command([sys.executable, *argv])


#: The commands' input files, each written by its public writer.
INPUTS = """\
from pathlib import Path
from repro.campaign.request import RequestQueue, SimRequest
from repro.cgyro.io import write_input_file
from repro.cgyro.presets import small_test
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.xgyro.input import write_ensemble
Path("case").mkdir()
Path("nonlinear").mkdir()
write_input_file(small_test(), "case/input.cgyro")
members = [small_test(dlntdr=(g, g), name=f"m{g:g}") for g in (2.0, 3.0, 4.0, 5.0)]
write_ensemble(members, "ensemble")
write_ensemble([m.with_updates(conserve_energy=True) for m in members[:2]], "study")
RequestQueue(
    SimRequest(request_id=f"r{i}", input=small_test(), arrival_s=float(i)) for i in range(3)
).to_json("requests.json")
FaultPlan(specs=(FaultSpec("bitflip", at_step=0, rank=0),
                 FaultSpec("rank_crash", at_step=1, rank=1)),
          detection_timeout_s=10.0).to_file("faults.json")
Path("garbage.json").write_text('{"format": "repro-')
write_input_file(small_test(nonlinear=True), "nonlinear/input.cgyro")
FaultPlan(specs=(FaultSpec("slowdown", at_step=0, node=1, factor=8.0),
                 FaultSpec("link_slowdown", at_step=0, factor=2.0, phase="coll_comm")),
          detection_timeout_s=10.0).to_file("stragglers.json")
FaultPlan(specs=(FaultSpec("node_loss", at_step=3, node=0),
                 FaultSpec("slowdown", at_step=0, rank=0, factor=8.0)),
          detection_timeout_s=10.0).to_file("flaky-node.json")
"""

SAME_BYTES = """\
import sys
from pathlib import Path
a, b = sys.argv[1:]
sys.exit(f"{a} and {b} differ" if Path(a).read_bytes() != Path(b).read_bytes() else 0)
"""

#: metrics.json spoilt five ways no registry could have written
CORRUPT_METRICS = """\
import json
def spoil(name, change):
    snap = json.load(open("metrics.json"))
    change(snap["counters"][0], snap["histograms"][0])
    json.dump(snap, open(name, "w"))
spoil("nan-counter.json", lambda c, h: c.update(value=float("nan")))
spoil("inf-counter.json", lambda c, h: c.update(value=float("inf")))
spoil("negative-bucket.json", lambda c, h: h["counts"].__setitem__(0, -5))
spoil("counts-past-count.json", lambda c, h: h.update(count=0, counts=[1] + [0] * 11))
spoil("infinite-sum.json", lambda c, h: h.update(sum=float("inf")))
"""

#: the corrupt snapshots CORRUPT_METRICS writes
SPOILT = ("nan-counter", "inf-counter", "negative-bucket", "counts-past-count", "infinite-sum")

GOLDEN_WAL = """\
from repro.check.invariants import builtin_scenarios
from repro.service.journal import ServiceJournal
scenario = builtin_scenarios(smoke=True)[-1]
journal = ServiceJournal(snapshot_interval=scenario.snapshot_interval)
scenario.build(journal=journal).run(scenario.horizon_s)
journal.to_file(f"{scenario.name}.wal")
"""


def commands() -> Iterator[Command]:
    """What CI runs, then the CLI commands and options no CI step
    reaches, all in one work directory that the first fills."""
    yield _python("-c", INPUTS)
    # -- what CI runs -------------------------------------------------
    for workload in ("oracle_nl03c_k2", "steps_nl03c_k2", "serve_bursty_small",
                     "chaos_kitchen_sink"):
        for trace in ("0", "1"):
            yield _python("-m", "hostbench", "--workload", workload, "--seed", "0",
                          "--seconds", "0", "--trace", trace)
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield _python(str(example))
    for overlap in ("off", "full"):
        yield _repro("check-trace", "--figure1", "--figure3", "--overlap", overlap)
    yield _repro("trace", "--spans-out", "spans.jsonl", "--chrome-out", "trace.json")
    yield _repro("trace", "--overlap", "full", "--spans-out", "spans_overlap.jsonl")
    yield _repro("metrics", "--json", "metrics.json")
    yield _repro("serve", "--smoke", "--json", "serve-report.json")
    yield _repro("plan", "--smoke", "--validate", "--json", "plan.json")
    # the plan artifact is byte-stable: a rerun writes the same bytes
    yield _repro("plan", "--smoke", "--json", "plan-rerun.json")
    yield _python("-c", SAME_BYTES, "plan.json", "plan-rerun.json")
    yield _repro("chaos", "--smoke", "--json", "chaos.json")
    yield _repro("monitor", "--smoke", "--json", "monitor.json", "--rollups-out", "rollups")
    yield _python("-c", GOLDEN_WAL)
    for argv in (["check-trace", "garbage.json"], ["metrics", "--load", "garbage.json"],
                 ["perf-gate", "garbage.json", "garbage.json"],
                 ["monitor", "--smoke", "--rules", "garbage.json"]):
        yield _repro(*argv, exit_code=2)
    yield _python("-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks"),
                  "--smoke", "--json", "bench.json")
    yield _repro("perf-gate", "bench.json", str(ROOT / "benchmarks" / "baselines" / "BENCH.json"))
    # -- the commands no CI step runs ---------------------------------
    yield _repro("run-cgyro", "case", "--timing-out", "case.timing",
                 "--checkpoint", "case.npz")
    yield _repro("run-cgyro", "case", "--resume", "case.npz")
    yield _repro("run-xgyro", "ensemble/input.xgyro", "--nodes", "4",
                 "--timing-out", "ensemble.timing")
    yield _repro("run-xgyro", "ensemble/input.xgyro", "--nodes", "4", "--faults", "faults.json",
                 "--overlap", "full", "--checkpoint-dir", "checkpoints")
    yield _repro("study", "study", "--nodes", "4", "--reports", "3")
    yield _repro("oracle", "ensemble/input.xgyro", "--nodes", "4", "--json", "oracle.json")
    yield _repro("campaign", "requests.json", "--faults", "0:faults.json",
                 "--json", "campaign.json")
    yield _repro("linear", "case")
    yield _repro("verify")
    yield _repro("figure2", "--measure-steps", "1")
    # -- option paths -------------------------------------------------
    yield _repro("metrics", "--load", "metrics.json",
                 "--quantile", "vmpi_collective_cost_seconds:0.99")
    yield _repro("check-trace", "--figure1", "--figure3", "--overlap", "full", "--save", ".")
    yield _repro("check-trace", "figure1.trace.json", "figure3.trace.json")
    yield _repro("run-cgyro", "case", "--machine", "single")
    yield _repro("serve", "--traffic", "diurnal", "--horizon", "600")
    # a plan searched for the requests' own input and machine: the jobs
    # take its k=1 on all 4 nodes, where the default packs k=3 on 3
    yield _repro("plan", "case", "--autotune", "--machine", "mixed-generation", "--nodes", "4",
                 "--members", "3", "--json", "plan-case.json")
    yield _repro("campaign", "requests.json", "--plan", "plan-case.json",
                 "--machine", "mixed-generation", "--nodes", "4",
                 expect="job000     0    0   1     4")
    yield _repro("linear", "case", "--method", "power")
    yield _repro("run-xgyro", "ensemble/input.xgyro", "--nodes", "2",
                 "--machine", "throttled-frontier")
    yield _repro("plan", "case")
    yield _repro("plan", "case", "--smoke")
    yield _repro("campaign", "requests.json", "--fifo")
    yield _repro("campaign", "requests.json", "--flaky-node", "0:flaky-node.json",
                 "--max-attempts", "1")
    yield _repro("serve", "--traffic", "bursty", "--fifo", "--horizon", "300",
                 "--max-pending", "2", "--tenant", "alice:2:400", "--tenant", "bob:1:600")
    yield _repro("chaos", "--smoke", "--scenario", "provision-stall", "--seed", "0")
    yield _repro("monitor", "--smoke", "--scenario", "kitchen-sink")
    yield _repro("trace", "ensemble/input.xgyro", "--nodes", "4", "--machine", "mixed-generation")
    yield _repro("trace", "--nl03c", "--top-stalls", "3")
    yield _repro("run-xgyro", "ensemble/input.xgyro", "--nodes", "4", "--faults",
                 "stragglers.json")
    yield _repro("linear", "nonlinear", "--modes", "1")
    yield _repro("verify", "case")
    # -- refusals: one error line, exit code 2 ------------------------
    yield _repro("check-trace", exit_code=2)
    yield _repro("serve", "--seed", "-1", "--horizon", "100", exit_code=2)
    yield _repro("campaign", "requests.json", "--steps", "0", exit_code=2)
    yield _repro("trace", "--top-stalls", "-1", exit_code=2)
    yield _python("-c", CORRUPT_METRICS)
    for name in SPOILT:
        yield _repro("metrics", "--load", f"{name}.json",
                     "--quantile", "vmpi_collective_cost_seconds:0.5", exit_code=2)
    for argv in (["campaign", "requests.json", "--faults", "abc:faults.json"],
                 ["campaign", "requests.json", "--flaky-node", "abc:faults.json"],
                 ["serve", "--tenant", "a:x:1", "--horizon", "100"],
                 ["linear", "case", "--modes", "x"], ["linear", "case", "--modes", ","],
                 ["campaign", "requests.json", "--max-batch", "0"],
                 ["plan", "case", "--members", "0"], ["plan", "--smoke", "--seed", "-1"]):
        yield _repro(*argv, exit_code=2)


def run(work: Path) -> List[str]:
    """Run every command in ``work``, keeping each one's stdout under
    ``work/stdout``; the failures, one line each."""
    (work / "entered").mkdir(parents=True)
    (work / "stdout").mkdir()
    paths = [str(HERE), str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, REPRO_CENSUS_DIR=str(work / "entered"),
               PYTHONPATH=os.pathsep.join(p for p in paths if p), **THREAD_PINS)
    failed = []
    for number, cmd in enumerate(commands()):
        shown = " ".join(["python", *cmd.argv[1:]]).split("\n")[0]
        start = time.perf_counter()
        proc = subprocess.run(cmd.argv, cwd=work, env=env, capture_output=True, text=True)
        print(f"{time.perf_counter() - start:6.1f} s  exit {proc.returncode}  {shown}", flush=True)
        (work / "stdout" / f"{number:03d}.txt").write_text(f"$ {shown}\n{proc.stdout}")
        if proc.returncode != cmd.exit_code:
            failed.append(f"{shown} exited {proc.returncode}, expected {cmd.exit_code}\n"
                          f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        elif cmd.expect not in proc.stdout:
            failed.append(f"{shown} printed no {cmd.expect!r}\n{proc.stdout[-2000:]}")
    return failed


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", default=None,
                        help="work directory (default: a fresh temporary one)")
    parser.add_argument("--skip-run", action="store_true",
                        help="diff the entries already recorded under --dir")
    args = parser.parse_args(argv)
    if args.skip_run and not args.dir:
        parser.error("--skip-run needs the --dir of a finished run")
    work = Path(args.dir or tempfile.mkdtemp(prefix="census-")).resolve()
    failed = [] if args.skip_run else run(work)
    found = never_reached(src_sources(), *read_runs(work))
    failed += problems(found, read_listed(LISTED.read_text()))
    print(f"{len(found)} functions with unreached lines, {sum(found.values())} lines "
          f"(records under {work / 'entered'})")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
