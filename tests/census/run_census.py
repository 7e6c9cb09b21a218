"""Function census: which ``src/`` functions run outside the tests.

Runs every command of :func:`commands` — what CI runs, plus each CLI
command and option path no CI step reaches — with ``sitecustomize.py``
beside this file on ``PYTHONPATH``, so every process records the
``src/`` functions it enters (hostbench children and CLI subprocesses
included).  Then it diffs those entries against an ``ast`` walk of
every function and method under ``src/``::

    PYTHONPATH=src python tests/census/run_census.py [--dir DIR] [--skip-run]

A function is *never entered* when no process called it.  Only the
outermost one counts: a nested function is listed only when its parent
ran, since nothing else could call it.  The ratchet is
``never_entered.txt`` beside this file, one ``src/file.py::qualname
body-lines reason`` line per never-entered function, each reason a key
of :data:`REASONS`.  The census fails when a command exits with another
code than it should, when a never-entered function is not listed, when
a listed one ran or is gone, or when an entry's line count or reason is
wrong — so the list only shrinks by decision.  Method, command list and
counts: EXPERIMENTS.md, "Function census".
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
LISTED = HERE / "never_entered.txt"

#: one BLAS thread per process, as hostbench runs its children
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(ROOT))
from tests.test_symbol_census import REASONS as SYMBOL_REASONS  # noqa: E402

#: Why a never-entered function may stay: the symbol census's reasons,
#: plus bodies that only refuse.
REASONS = {
    **SYMBOL_REASONS,
    "refusal": "raises an error for a state or input no command reaches",
}


# ----------------------------------------------------------------------
# the diff
# ----------------------------------------------------------------------
class Function(NamedTuple):
    key: str  # "src/file.py::qualname"
    first: int  # first line: the first decorator's, else the def's
    lines: int  # body lines, def line through last line
    parent: Optional[str]  # key of the nearest enclosing function


def functions(path: str, tree: ast.Module) -> Iterator[Function]:
    """Every function and method of a module, nested ones included."""

    def walk(node: ast.AST, prefix: str, parent: Optional[str]) -> Iterator[Function]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{path}::{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield Function(key, first, child.end_lineno - child.lineno + 1, parent)
                yield from walk(child, f"{prefix}{child.name}.<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", parent)
            else:
                yield from walk(child, prefix, parent)

    return walk(tree, "", None)


def never_entered(
    sources: Dict[str, str], entered: Set[Tuple[str, int]]
) -> Dict[str, int]:
    """{key: body lines} of the outermost functions of ``sources``
    (path -> text) whose ``(path, first line)`` is not in ``entered``."""
    found: Dict[str, int] = {}
    for path, text in sources.items():
        ran = {}
        for fn in functions(path, ast.parse(text)):
            ran[fn.key] = (path, fn.first) in entered
            if not ran[fn.key] and (fn.parent is None or ran[fn.parent]):
                found[fn.key] = fn.lines
    return found


def read_listed(text: str) -> Dict[str, Tuple[int, str]]:
    """``never_entered.txt`` as {key: (body lines, reason)}."""
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
            out.append(f"never entered and not listed (call it from a command, delete "
                       f"it, or list it with one of {sorted(REASONS)}):\n  {key} {lines} ?")
        elif listed[key][0] != lines:
            out.append(f"listed with {listed[key][0]} body lines, has {lines}: {key}")
    for key, (_, reason) in sorted(listed.items()):
        if key not in found:
            out.append(f"listed but entered or gone (take it off the list): {key}")
        if reason not in REASONS:
            out.append(f"{key}: reason {reason!r} is not one of {sorted(REASONS)}")
    return out


def read_entered(directory: Path) -> Set[Tuple[str, int]]:
    return {
        (path, line)
        for dump in directory.glob("entered/*.json")
        for path, line in json.loads(dump.read_text())
    }


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


def _repro(*argv: str, exit_code: int = 0) -> Command:
    return Command([sys.executable, "-m", "repro", *argv], exit_code)


def _python(*argv: str) -> Command:
    return Command([sys.executable, *argv])


#: The commands' input files, each written by its public writer.
INPUTS = """\
from pathlib import Path
from repro.campaign import RequestQueue, SimRequest
from repro.cgyro.io import write_input_file
from repro.cgyro.presets import small_test
from repro.resilience import FaultPlan, FaultSpec
from repro.xgyro.input import write_ensemble
Path("case").mkdir()
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
"""

GOLDEN_WAL = """\
from repro.check import builtin_scenarios
from repro.service import ServiceJournal
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
    yield _repro("chaos", "--smoke", "--json", "chaos.json")
    yield _repro("monitor", "--smoke", "--json", "monitor.json", "--rollups-out", "rollups")
    yield _python("-c", GOLDEN_WAL)
    for argv in (["check-trace", "garbage.json"], ["metrics", "--load", "garbage.json"],
                 ["perf-gate", "garbage.json", "garbage.json"],
                 ["monitor", "--smoke", "--rules", "garbage.json"]):
        yield _repro(*argv, exit_code=2)
    yield _python("-m", "pytest", "-q", "-p", "no:cacheprovider", str(ROOT / "benchmarks"),
                  "--smoke", "--json", "BENCH_PR5.json")
    yield _repro("perf-gate", "BENCH_PR5.json",
                 str(ROOT / "benchmarks" / "baselines" / "BENCH_PR5.json"))
    # -- the commands no CI step runs ---------------------------------
    yield _repro("run-cgyro", "case", "--timing-out", "case.timing",
                 "--checkpoint", "case.npz")
    yield _repro("run-cgyro", "case", "--resume", "case.npz")
    yield _repro("run-xgyro", "ensemble/input.xgyro", "--nodes", "4")
    yield _repro("run-xgyro", "ensemble/input.xgyro", "--nodes", "4", "--faults", "faults.json")
    yield _repro("study", "study", "--nodes", "4")
    yield _repro("oracle", "ensemble/input.xgyro", "--nodes", "4")
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
    yield _repro("campaign", "requests.json", "--plan", "plan.json")
    yield _repro("linear", "case", "--method", "power")
    yield _repro("run-xgyro", "ensemble/input.xgyro", "--nodes", "2",
                 "--machine", "throttled-frontier")


def run(work: Path) -> List[str]:
    """Run every command in ``work``; the failures, one line each."""
    (work / "entered").mkdir(parents=True)
    paths = [str(HERE), str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, REPRO_CENSUS_DIR=str(work / "entered"),
               PYTHONPATH=os.pathsep.join(p for p in paths if p), **THREAD_PINS)
    failed = []
    for cmd in commands():
        shown = " ".join(["python", *cmd.argv[1:]]).split("\n")[0]
        start = time.perf_counter()
        proc = subprocess.run(cmd.argv, cwd=work, env=env, capture_output=True, text=True)
        print(f"{time.perf_counter() - start:6.1f} s  exit {proc.returncode}  {shown}", flush=True)
        if proc.returncode != cmd.exit_code:
            failed.append(f"{shown} exited {proc.returncode}, expected {cmd.exit_code}\n"
                          f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
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
    found = never_entered(src_sources(), read_entered(work))
    failed += problems(found, read_listed(LISTED.read_text()))
    print(f"{len(found)} never-entered functions, {sum(found.values())} body lines "
          f"(entries under {work / 'entered'})")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
