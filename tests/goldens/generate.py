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
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.check import builtin_scenarios, differential_oracle
from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled
from repro.errors import JournalCrash
from repro.machine.presets import frontier_like
from repro.service import ServiceJournal, recover_service

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


def main() -> int:
    write_service_wal_golden()
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
