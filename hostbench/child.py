"""One hostbench sample: a fresh process that sets up, runs the timed section once, checks.

``python3 -m hostbench.child <workload> --seed S`` prints one JSON object
as its last line of standard output.  The parent passes its own clock
reading at spawn (``--t0``), so ``setup_s`` covers interpreter start,
``import repro``, input generation and construction.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

MODES = ("plain", "traced", "variant")


def speed_probe() -> float:
    """Host seconds a fixed mix of work takes on this box right now.

    Four parts of about equal weight, the kinds of work ``repro`` is made
    of: interpreter bytecode, numpy calls on tiny arrays, a LAPACK
    inversion of one cmat-sized block, and the cmat matvec.  It touches
    2.5 MiB and nothing of ``repro``, so no change to the library can
    move it.  ``hostbench.metrics`` divides host times by it.
    """
    import numpy as np

    block = np.eye(256) * 256.0 + np.arange(65536.0).reshape(256, 256) / 65536.0
    small, vec = np.ones((16, 16)), np.ones((16, 4), dtype=complex)
    cmat, h = np.ones((4, 1, 256, 256)), np.ones((4, 256, 1), dtype=complex)
    # first calls pay lazy imports and BLAS start-up, not box speed
    np.einsum("vw,wt->vt", small, vec, optimize=True), np.linalg.inv(block)
    np.einsum("ctvw,cwt->cvt", cmat, h, optimize=True)
    started = time.perf_counter()
    x, seen = 1, {}
    for i in range(250000):
        x = (x * 31 + i) % 1000003
        seen[i & 255] = x
    for _ in range(1200):
        np.einsum("vw,wt->vt", small, vec, optimize=True)
    for _ in range(6):
        np.linalg.inv(block)
    for _ in range(12):
        np.einsum("ctvw,cwt->cvt", cmat, h, optimize=True)
    return time.perf_counter() - started


def run_once(workload, t0: float, tracer=None, reference: bool = False) -> Dict[str, Any]:
    """Set-up, timed section and check of one workload; ``t0`` is the sample's start (epoch s)."""
    state = workload.setup()
    setup_s = time.time() - t0
    cpu_from, timed_from = time.process_time(), time.perf_counter()
    result = workload.timed(state)
    timed_to, cpu_to = time.perf_counter(), time.process_time()
    # read before the probe and the check: the probe wakes BLAS buffers the
    # small workloads never touch (+10 MiB), and the reference run of
    # steps_nl03c_k2 builds a second cmat the workload itself never holds
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_s = speed_probe()
    outcome = workload.check(result, reference)
    sample: Dict[str, Any] = {
        "wall_s": timed_to - timed_from,
        "cpu_s": cpu_to - cpu_from,
        "setup_s": setup_s,
        "probe_s": probe_s,
        "peak_rss_mib": peak_rss_mib,
        "ok": outcome.ok,
        "ops": outcome.ops,
        "failed": outcome.ops if not outcome.ok else outcome.refused,
        "fingerprint": outcome.fingerprint,
        "facts": outcome.facts,
    }
    if tracer is not None:
        sample["trace"] = tracer.summary(timed_from, timed_to)
    return sample


def main(argv: Optional[list] = None) -> int:
    entered = time.time()
    parser = argparse.ArgumentParser(prog="python3 -m hostbench.child", description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="bench")
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--reference", action="store_true", help="also run the expensive reference check")
    parser.add_argument("--t0", type=float, default=entered, help="parent's time.time() at spawn")
    parser.add_argument("--trace-dir", default=None, help="write this sample's spans as Chrome JSON here")
    parser.add_argument("--sample", type=int, default=0, help="sample id (the trace's pid)")
    args = parser.parse_args(argv)

    import_from = time.perf_counter()
    from hostbench import metrics, trace, workloads

    import_s = time.perf_counter() - import_from
    if args.workload not in workloads.WORKLOADS or args.size not in metrics.SIZES:
        parser.error(f"unknown workload or size: {args.workload} {args.size}")
    tracer = None
    if args.mode == "traced":
        tracer = trace.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.mode == "variant")
    sample = run_once(workload, args.t0, tracer, args.reference)
    sample["import_s"] = import_s
    if tracer is not None and args.trace_dir:
        name = f"{args.workload}.seed{args.seed}.sample{args.sample}.trace.json"
        tracer.write_chrome(Path(args.trace_dir) / name, args.sample)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
