"""Regenerate the committed golden EquivalenceReport JSON files.

Run from the repository root:

    PYTHONPATH=src python tests/goldens/generate.py

The goldens pin the nl03c-scale differential-oracle result in
``member`` mode, whose deltas are exactly zero by construction
(order-identical reduction); the JSON must therefore be byte-stable
across platforms.  ``tests/test_check_oracle.py`` asserts that a fresh
oracle run reproduces these bytes exactly.

The overlapped cases run the ensemble side under the fully pipelined
nonblocking schedule (``overlap="full"``) against *blocking* member
baselines — still in exact ``member`` mode, because the pipelined
schedules are arithmetic-order-identical to blocking (aggregated
AllReduces combine elementwise; the chunked propagator acts per
configuration point).  A nonzero ``max_abs`` here means the overlap
machinery changed physics.

``service_wal.json`` pins the control plane the same way: for each
``builtin_scenarios(smoke=True)`` chaos schedule, journaled with the
scenario's own ``snapshot_interval``, the sha256 of the WAL bytes
(``ServiceJournal.to_jsonl()``) and of the sorted-keys report JSON,
plus the report digest of ``recover_service`` after a crash at three
WAL indices in ``resume`` mode and one in ``cold`` mode.
``tests/test_service_wal.py`` recomputes and compares them, so a
control-plane refactor that moves one byte of the journal, the report
or a recovered run goes red.

``solver_states.json`` pins the solver over the shapes the nl03c
goldens do not span (:data:`SOLVER_STATE_CASES`): for each case the
sha256 of every simulation's ``gather_h()``, flux and ``phi2`` and the
``repr`` of ``world.elapsed()`` after two report intervals.
``tests/test_rank_axis.py`` recomputes and compares them, so a change
to how the solver holds or advances its state that moves one bit of
physics or of simulated time goes red.

``world_books.json`` pins what the world *booked* for the same cases
(:data:`WORLD_BOOKS_CASES`: the solver-state cases run again with a
``CollectiveChecker`` and telemetry installed, plus one k = 2 run under
an armed ``link_slowdown``): sha256 of ``clock``, ``coll_wait_s``,
``imposed_wait_s``, every rank's category times, the ``repr`` of every
trace event, every span, ``metrics.to_dict()`` and
``checker.completed``.  ``tests/test_vmpi_fastpath.py`` recomputes and
compares them, so a change to ``vmpi/world.py`` or ``Communicator``
that moves one bit of simulated time, one event or one span goes red.

``artifact_bytes.json`` pins every byte-stable artifact a reader can be
handed (:func:`artifact_bytes`): the sha256 of one instance of each —
trace JSON, span JSONL, Chrome export, metrics JSON, rollup JSONL, the
default rulebook, a ``repro-plan-v1`` plan, bench records, a fault
plan, a request queue, an equivalence report, and the ``campaign``,
``serve``, ``chaos`` and ``monitor`` ``--json`` reports — written by
the writer a user would call (the CLI where the CLI is the writer).
The campaign report is dumped without ``sort_keys``, so its records'
key order is pinned too.  ``tests/test_records.py`` recomputes them, so
a serialiser change that moves one byte of any artifact goes red.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from repro.check.checker import CollectiveChecker
from repro.check.invariants import builtin_scenarios
from repro.check.oracle import differential_oracle
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled, small_test
from repro.errors import JournalCrash
from repro.machine.presets import frontier_like, generic_cluster
from repro.obs import Telemetry
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.runner import ResilientXgyroRunner
from repro.service.journal import ServiceJournal, recover_service
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble

HERE = Path(__file__).resolve().parent


def nl03c_members(k: int):
    base = nl03c_scaled(steps_per_report=1, nonlinear=False)
    return [
        base.with_updates(
            name=f"nl03c.m{m}", dlntdr=(3.0 + 0.1 * m, 3.0 + 0.1 * m)
        )
        for m in range(k)
    ]


def nl03c_machine(k: int):
    # 4 frontier-like nodes (32 ranks) per member, scaled memory so the
    # paper's capacity arithmetic still binds at the scaled-down size
    return frontier_like(
        n_nodes=4 * k, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK
    )


#: golden file -> (k, overlap mode of the ensemble side)
CASES = {
    "oracle_nl03c_k2.json": (2, "off"),
    "oracle_nl03c_k4.json": (4, "off"),
    "oracle_nl03c_k2_overlap.json": (2, "full"),
    "oracle_nl03c_k4_overlap.json": (4, "full"),
}


SERVICE_WAL_GOLDEN = "service_wal.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(report) -> str:
    return _sha256(json.dumps(report.to_dict(), sort_keys=True))


def service_wal_case(scenario) -> dict:
    """The golden entry of one chaos scenario: event count, WAL and
    report digests of the uncrashed journaled run, and the report
    digest of each crash-and-recover run, keyed ``mode@index``."""
    journal = ServiceJournal(snapshot_interval=scenario.snapshot_interval)
    report = scenario.build(journal=journal).run(scenario.horizon_s)
    n = len(journal)
    recovered = {}
    crashes = [("resume", n // 4), ("resume", n // 2), ("resume", 3 * n // 4)]
    for mode, k in crashes + [("cold", n // 2)]:
        crashed = ServiceJournal(
            snapshot_interval=scenario.snapshot_interval, crash_at_event=k
        )
        try:
            scenario.build(journal=crashed).run(scenario.horizon_s)
        except JournalCrash:
            pass
        recovered[f"{mode}@{k}"] = _report_digest(
            recover_service(
                scenario.build(),
                crashed,
                horizon_s=scenario.horizon_s,
                mode=mode,
            )
        )
    return {
        "n_events": n,
        "wal_sha256": _sha256(journal.to_jsonl()),
        "report_sha256": _report_digest(report),
        "recovered_report_sha256": recovered,
    }


def write_service_wal_golden() -> None:
    golden = {
        sc.name: service_wal_case(sc) for sc in builtin_scenarios(smoke=True)
    }
    out = HERE / SERVICE_WAL_GOLDEN
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for name, case in golden.items():
        print(
            f"{out.name}: {name} {case['n_events']} events, "
            f"wal={case['wal_sha256'][:16]} "
            f"report={case['report_sha256'][:16]}"
        )


SOLVER_STATES_GOLDEN = "solver_states.json"

#: report intervals every solver-state case runs
_STATE_REPORTS = 2


def _arrays_sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _state_digest(world, sims, rows) -> dict:
    """Digests of the final states of ``sims`` and of their report
    rows (flux and ``phi2`` per row, in report order)."""
    return {
        "h_sha256": _arrays_sha256(m.gather_h() for m in sims),
        "flux_sha256": _arrays_sha256(row.flux for row in rows),
        "phi2_sha256": _arrays_sha256(row.phi2 for row in rows),
        "elapsed": repr(world.elapsed()),
    }


def _books_digest(world) -> dict:
    """Digests of everything an instrumented ``world`` booked: the
    clocks and wait tallies, every rank's category times, and each
    record the one record point wrote (trace event, span, metric
    series, checker post), in the order it wrote them."""
    ranks = range(world.n_ranks)
    return {
        "n_events": len(world.trace),
        "clock_sha256": _arrays_sha256([world.clock]),
        "coll_wait_sha256": _arrays_sha256([world.coll_wait_s]),
        "imposed_wait_sha256": _arrays_sha256([world.imposed_wait_s]),
        "category_times_sha256": _sha256(
            repr([world.category_breakdown([r], reduce="sum") for r in ranks])
        ),
        "trace_sha256": _sha256("\n".join(repr(ev) for ev in world.trace)),
        "spans_sha256": _sha256(
            "\n".join(
                json.dumps(s.to_dict(), sort_keys=True) for s in world.tracer.spans
            )
        ),
        "metrics_sha256": _sha256(
            json.dumps(world.metrics.to_dict(), sort_keys=True)
        ),
        "checker_sha256": _sha256(repr(world.checker.completed)),
    }


def _state_world(n_ranks: int, books: bool = False) -> VirtualWorld:
    """The world of one solver-state case; with ``books`` it carries a
    checker and telemetry, which :func:`_books_digest` reads back."""
    machine = generic_cluster(n_nodes=max(1, n_ranks // 4), ranks_per_node=4)
    world = VirtualWorld(machine, n_ranks)
    if books:
        world.install_checker(CollectiveChecker())
        Telemetry().install(world)
    return world


def _digest(world, sims, rows, books: bool) -> dict:
    return _books_digest(world) if books else _state_digest(world, sims, rows)


def _cgyro_state(
    n_ranks: int, overlap: str = "off", *, books: bool = False, **overrides
) -> dict:
    """Standalone CGYRO on ``n_ranks`` ranks.  ``Decomposition.choose``
    makes P2 the largest common divisor of nt and the rank count, so a
    multi-rank ``P2 = 1`` grid needs ``n_toroidal`` of 3 or 1."""
    world = _state_world(n_ranks, books)
    inp = small_test(steps_per_report=2, **overrides)
    sim = CgyroSimulation(world, range(n_ranks), inp, overlap=overlap)
    return _digest(world, [sim], sim.run(_STATE_REPORTS), books)


def _xgyro_members(k: int, **overrides):
    return [
        small_test(
            name=f"m{i}",
            steps_per_report=2,
            dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i),
            **overrides,
        )
        for i in range(k)
    ]


def _xgyro_state(
    k: int, overlap: str = "off", nc_counts=None, *, books: bool = False, **overrides
) -> dict:
    """XGYRO, 8 ranks (P1 = 2, P2 = 4) per member."""
    world = _state_world(8 * k, books)
    ens = XgyroEnsemble(
        world, _xgyro_members(k, **overrides), overlap=overlap, nc_counts=nc_counts
    )
    rows = [row for rep in ens.run(_STATE_REPORTS) for row in rep.member_rows]
    return _digest(world, ens.members, rows, books)


def _recovered_state(overlap: str, *, books: bool = False) -> dict:
    """k = 4 losing member 2 at step 2: the survivors adopt its rows,
    so their shard indexers become explicit (non-contiguous) lists;
    one more report interval then runs on the recovered ensemble."""
    world = _state_world(32, books)
    runner = ResilientXgyroRunner(
        world,
        _xgyro_members(4, nonlinear=True),
        plan=FaultPlan(specs=(FaultSpec("rank_crash", at_step=2, rank=17),)),
        overlap=overlap,
    )
    runner.run_steps(3)
    ens = runner.ensemble
    shards = [s for group in ens.scheme.shards.values() for s in group]
    if not any(isinstance(s.index(), list) for s in shards):
        raise AssertionError("recovery left every shard contiguous")
    rows = ens.run_report_interval().member_rows
    return _digest(world, ens.members, rows, books)


def _slowed_books() -> dict:
    """Nonlinear k = 2 whose links degrade from step 1 on: the injector
    is consulted at every collective and its factor multiplies the
    memoised price from then on."""
    world = _state_world(16, books=True)
    runner = ResilientXgyroRunner(
        world,
        _xgyro_members(2, nonlinear=True),
        plan=FaultPlan(specs=(FaultSpec("link_slowdown", at_step=1, factor=3.0),)),
    )
    runner.run_steps(3)
    if not any(s.kind == "collective" for s in world.tracer.spans):
        raise AssertionError("the slowed run recorded no collective span")
    return _books_digest(world)


#: case name -> callable returning its digest entry; called with
#: ``books=True`` it runs the same case on an instrumented world and
#: returns the books digest instead.  Names read
#: ``<solver>.p<P1>x<P2>[.<what is switched on>]``.
SOLVER_STATE_CASES = {
    "cgyro.p1x1": partial(_cgyro_state, 1),
    "cgyro.p1x1.nl.em": partial(_cgyro_state, 1, nonlinear=True, beta_e=0.01),
    "cgyro.p1x2.nl": partial(_cgyro_state, 2, nonlinear=True),
    "cgyro.p1x4.em.str": partial(_cgyro_state, 4, "str", beta_e=0.01),
    "cgyro.p2x4.nl": partial(_cgyro_state, 8, nonlinear=True),
    "cgyro.p2x4.nl.em.full": partial(
        _cgyro_state, 8, "full", nonlinear=True, beta_e=0.01
    ),
    "cgyro.p4x4.nl.str": partial(_cgyro_state, 16, "str", nonlinear=True),
    "cgyro.p8x4.em": partial(_cgyro_state, 32, beta_e=0.01),
    "cgyro.p16x4.nl": partial(_cgyro_state, 64, nonlinear=True),
    "cgyro.p16x4.em.full": partial(_cgyro_state, 64, "full", beta_e=0.01),
    "cgyro.p4x1.nl": partial(_cgyro_state, 4, nonlinear=True, n_toroidal=3),
    "cgyro.p4x1.em.coll": partial(
        _cgyro_state, 4, "coll", beta_e=0.01, n_toroidal=3
    ),
    "cgyro.p8x1.nl.em.str": partial(
        _cgyro_state, 8, "str", nonlinear=True, beta_e=0.01, n_toroidal=3
    ),
    "cgyro.p8x1": partial(_cgyro_state, 8, n_toroidal=1),
    "xgyro.k2.p2x4.nl": partial(_xgyro_state, 2, nonlinear=True),
    "xgyro.k2.p2x4.nl.em.full": partial(
        _xgyro_state, 2, "full", nonlinear=True, beta_e=0.01
    ),
    "xgyro.k2.p2x4.str": partial(_xgyro_state, 2, "str"),
    "xgyro.k3.p2x4.nl.coll": partial(_xgyro_state, 3, "coll", nonlinear=True),
    "xgyro.k3.p2x4.em": partial(_xgyro_state, 3, beta_e=0.01),
    "xgyro.k2.p2x4.nl.uneven": partial(
        _xgyro_state, 2, nonlinear=True, nc_counts=(1, 7, 3, 5)
    ),
    "xgyro.k3.p2x4.uneven.full": partial(
        _xgyro_state, 3, "full", nc_counts=(1, 2, 3, 4, 5, 1)
    ),
    "xgyro.k4.p2x4.nl.recovered": partial(_recovered_state, "off"),
    "xgyro.k4.p2x4.nl.recovered.full": partial(_recovered_state, "full"),
}


def write_solver_states_golden() -> None:
    golden = {name: case() for name, case in SOLVER_STATE_CASES.items()}
    out = HERE / SOLVER_STATES_GOLDEN
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for name, case in golden.items():
        print(f"{out.name}: {name} h={case['h_sha256'][:16]} elapsed={case['elapsed']}")


WORLD_BOOKS_GOLDEN = "world_books.json"

#: case name -> zero-argument callable returning its books digest
WORLD_BOOKS_CASES = {
    **{name: partial(case, books=True) for name, case in SOLVER_STATE_CASES.items()},
    "xgyro.k2.p2x4.nl.slowed": _slowed_books,
}


def write_world_books_golden() -> None:
    golden = {name: case() for name, case in WORLD_BOOKS_CASES.items()}
    out = HERE / WORLD_BOOKS_GOLDEN
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for name, case in golden.items():
        print(
            f"{out.name}: {name} {case['n_events']} events, "
            f"trace={case['trace_sha256'][:16]} spans={case['spans_sha256'][:16]}"
        )


ARTIFACT_BYTES_GOLDEN = "artifact_bytes.json"


def _cli(*argv: str) -> None:
    """Run one ``repro`` subcommand in-process, stdout swallowed."""
    from repro.cli import main as repro_main

    with contextlib.redirect_stdout(io.StringIO()):
        code = repro_main([str(a) for a in argv])
    if code != 0:
        raise AssertionError(f"repro {' '.join(map(str, argv))} exited {code}")


def _artifact_members(n: int):
    return [
        small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(n)
    ]


def write_artifacts(out: Path) -> None:
    """Write one instance of every byte-stable artifact into ``out``,
    each through the writer a user would reach it by."""
    from repro.campaign.request import RequestQueue, SimRequest
    from repro.obs.gate import write_bench_records
    from repro.obs.monitor import default_rulebook, dump_rulebook

    # telemetry of the built-in k = 4 demo: spans, Chrome, metrics
    _cli("trace", "--spans-out", out / "spans.jsonl",
         "--chrome-out", out / "chrome.json")
    _cli("metrics", "--json", out / "metrics.json")
    # repro-trace-v1 (written as figure3.trace.json)
    _cli("check-trace", "--figure3", "--save", out)
    dump_rulebook(default_rulebook(), out / "rulebook.json")
    _cli("plan", "--smoke", "--json", out / "plan.json")
    write_bench_records(
        {
            "figure2_headline": {"xgyro_wall_s": 0.8125, "speedup": 1.5},
            "chaos": {"goodput": 3.0, "n_dead": 2},
        },
        out / "bench.json",
    )
    FaultPlan(
        specs=(
            FaultSpec("rank_crash", at_step=2, rank=1),
            FaultSpec("link_slowdown", at_step=0, factor=2.5, phase="coll_comm"),
            FaultSpec("service_crash", at_step=0, at_s=120.0, duration_s=30.0),
        ),
        detection_timeout_s=5.0,
        seed=7,
    ).to_file(out / "faults.json")
    queue = RequestQueue()
    for i, inp in enumerate(_artifact_members(4)):
        queue.submit(
            SimRequest(
                request_id=f"r{i}",
                input=inp,
                priority=i % 2,
                arrival_s=float(i),
                tenant="alice" if i else None,
                deadline_s=600.0 if i else None,
            )
        )
    queue.to_json(out / "requests.json")
    (out / "equivalence.json").write_text(
        differential_oracle(
            _artifact_members(2),
            generic_cluster(n_nodes=2, ranks_per_node=4),
            n_reports=1,
        ).to_json()
    )
    # a campaign whose every node is flaky: retries, a quarantine and
    # dead letters all land in the report
    (out / "flaky.json").write_text(
        FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=2, rank=1),),
            detection_timeout_s=5.0,
        ).to_json()
    )
    _cli("campaign", out / "requests.json", "--nodes", 4, "--steps", 4,
         "--flaky-node", f"0:{out / 'flaky.json'}",
         "--flaky-node", f"1:{out / 'flaky.json'}",
         "--max-attempts", 2, "--backoff", 1, "--json", out / "campaign.json")
    (out / "flaky.json").unlink()
    _cli("serve", "--smoke", "--json", out / "serve.json")
    _cli("chaos", "--smoke", "--scenario", "kitchen-sink",
         "--json", out / "chaos.json")
    _cli("monitor", "--smoke", "--scenario", "kitchen-sink",
         "--json", out / "monitor.json", "--rollups-out", out)


def artifact_bytes() -> dict:
    """File name -> sha256 of its bytes, over :func:`write_artifacts`."""
    with tempfile.TemporaryDirectory() as tmp:
        write_artifacts(Path(tmp))
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(tmp).iterdir())
        }


def write_artifact_bytes_golden() -> None:
    golden = artifact_bytes()
    out = HERE / ARTIFACT_BYTES_GOLDEN
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for name, digest in golden.items():
        print(f"{out.name}: {name} {digest[:16]}")


def main() -> int:
    write_artifact_bytes_golden()
    write_service_wal_golden()
    write_solver_states_golden()
    write_world_books_golden()
    for fname, (k, overlap) in CASES.items():
        report = differential_oracle(
            nl03c_members(k),
            nl03c_machine(k),
            n_reports=1,
            baseline="member",
            overlap=overlap,
        )
        out = HERE / fname
        out.write_text(report.to_json())
        print(
            f"{out.name}: k={k}, overlap={overlap}, ok={report.ok}, "
            f"max_abs={report.max_abs:.3e}"
        )
        if not report.ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
