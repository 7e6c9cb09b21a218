"""Shared fixtures for the benchmark harness.

Benchmarks run the *scaled nl03c* scenario from DESIGN.md: a
Frontier-like 32-node machine whose per-rank memory budget is scaled
alongside the problem dimensions so the paper's memory arithmetic is
preserved.  Run with::

    pytest benchmarks/ --benchmark-only -s

Every bench records its headline numbers through the session-scoped
``bench_json`` fixture; ``--json PATH`` writes them as a
machine-readable ``repro-bench-v1`` document that ``repro perf-gate``
compares against a committed baseline under ``benchmarks/baselines/``:
the per-lane file for the autotune, online-service, overlap, chaos and
monitor benches, ``BENCH_PR5.json`` for everything else (one record,
one file).
"""

from __future__ import annotations

import pytest

from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled
from repro.machine import frontier_like
from repro.obs.gate import write_bench_records


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run benchmarks at their smallest scale (CI rot check; "
        "numbers are not representative)",
    )
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="PATH",
        help="write bench records (repro-bench-v1) to PATH for the "
        "perf-regression gate",
    )


class BenchRecorder:
    """Accumulates ``{bench: {metric: value}}`` across the session."""

    def __init__(self):
        self.records = {}

    def record(self, bench_name, **metrics):
        """Merge ``metrics`` into the record for ``bench_name``."""
        entry = self.records.setdefault(bench_name, {})
        for key, value in metrics.items():
            entry[key] = float(value)


_RECORDER = BenchRecorder()


@pytest.fixture(scope="session")
def bench_json():
    """The session bench recorder; call ``record(name, **metrics)``."""
    return _RECORDER


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--json")
    if path and _RECORDER.records:
        write_bench_records(_RECORDER.records, path)


@pytest.fixture(scope="session")
def smoke(request):
    """True when ``--smoke`` was passed: shrink scenario sizes."""
    return request.config.getoption("--smoke")


@pytest.fixture(scope="session")
def frontier32():
    """The 32-node Frontier-like machine of the headline benchmark."""
    return frontier_like(n_nodes=32, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK)


@pytest.fixture(scope="session")
def nl03c():
    """The scaled nl03c input."""
    return nl03c_scaled()


@pytest.fixture(scope="session")
def nl03c_sweep(nl03c):
    """8 nl03c variants — a temperature-gradient parameter sweep, the
    kind of study the paper says shares cmat."""
    return [
        nl03c.with_updates(dlntdr=(3.0 + 0.1 * m, 3.0 + 0.1 * m), name=f"nl03c.m{m}")
        for m in range(8)
    ]
