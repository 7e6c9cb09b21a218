"""hostbench: what a run of the simulator costs in host seconds and host memory.

One workload, as the benchmark driver runs it (``BENCHMARK.json``)::

    python3 -m hostbench --workload steps_nl03c_k2 --seed 0 --seconds 25 --trace 0

A whole run set — every workload interleaved round-robin, an untraced
round set for the end-to-end metrics, then a traced one for the layers::

    python3 -m hostbench --seed 0 --out results.json [--size full]

Two run sets against each other::

    python3 -m hostbench --compare a.json b.json

Every sample is one fresh child process (``hostbench.child``), one at a
time, with BLAS pinned to one thread.  The last line of standard output
in the first form is the driver's result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from hostbench.metrics import (
    END_TO_END,
    EXACT,
    PER_LAYER,
    SIZES,
    NotRepeatable,
    WORKLOADS,
    WorkloadSpec,
    end_to_end,
    per_layer,
)

ROOT = Path(__file__).resolve().parent.parent

#: the program is single-threaded; an unpinned BLAS would spin up one
#: thread per core of a shared two-core box and time its neighbours
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: fewest rounds of a run, however short ``--seconds`` is: five untraced
#: samples for a median with quartiles, three traced on/off pairs
MIN_ROUNDS = {False: 5, True: 3}

Samples = Dict[str, Dict[str, List[Dict[str, Any]]]]  # workload -> mode -> samples


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    paths = [str(ROOT / "src"), str(ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_child(
    name: str, seed: int, size: str, mode: str, reference: bool, sample: int,
    trace_dir: Optional[str],
) -> Dict[str, Any]:
    cmd = [
        sys.executable, "-m", "hostbench.child", name,
        "--seed", str(seed), "--size", size, "--mode", mode, "--sample", str(sample),
    ]
    if reference:
        cmd.append("--reference")
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(
    specs: Sequence[WorkloadSpec], seed: int, size: str, traced: bool, seconds: float,
    trace_dir: Optional[str] = None,
) -> Samples:
    """Rounds of samples, workloads interleaved, until ``seconds`` per workload have passed.

    An untraced round is one plain sample of each workload.  A traced
    round is a traced sample, a plain one (the base of the tracing
    overhead) and, where the workload prices an instrument, its on/off
    variant — in an order that rotates from round to round, so drift
    falls on every mode alike.
    """
    samples: Samples = {spec.name: {} for spec in specs}
    started, rounds = time.perf_counter(), 0
    while rounds < MIN_ROUNDS[traced] or time.perf_counter() - started < seconds * len(specs):
        for spec in specs:
            modes = ["plain"]
            if traced:
                modes = ["traced", "plain"] + (["variant"] if spec.prices else [])
                modes = modes[rounds % len(modes):] + modes[: rounds % len(modes)]
            for mode in modes:
                # the expensive reference check runs once per run, off the traced samples
                reference = mode == "plain" and not samples[spec.name].get("plain")
                samples[spec.name].setdefault(mode, []).append(
                    run_child(spec.name, seed, size, mode, reference, rounds, trace_dir)
                )
        rounds += 1
    return samples


def summarise(spec: WorkloadSpec, modes: Dict[str, List[Dict[str, Any]]], traced: bool) -> Dict[str, Any]:
    """One workload's result: correctness, failure counts and its metrics."""
    every = [s for group in modes.values() for s in group]
    result: Dict[str, Any] = {
        "ops": every[0]["ops"],
        "n": len(modes["plain"]),
        # outputs must be right in every sample and byte-identical across them
        "correct": all(s["ok"] for s in every) and len({s["fingerprint"] for s in every}) == 1,
        "attempted": sum(s["ops"] for s in every),
        "failed": sum(s["failed"] for s in every),
    }
    if not result["correct"]:
        result["failed"] = result["attempted"]
    if traced:
        result["per_layer"] = per_layer(
            spec, modes["traced"], modes["plain"], modes.get("variant", [])
        )
    else:
        result["end_to_end"] = end_to_end(modes["plain"])
    return result


def print_result(name: str, result: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"{name}: {verdict}, {result['failed']} of {result['attempted']} ops failed, n={result['n']}")
    if "end_to_end" in result:
        for m in END_TO_END:
            q = result["end_to_end"][m.name]
            print(
                f"  {m.name:<34s} {q['median']:>14.6g} {m.unit:<8s}"
                f" q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  min {q['min']:.6g}  n {q['n']}"
            )
    if "per_layer" in result:
        for p in PER_LAYER:
            print(f"  {p.name:<34s} {result['per_layer'][p.name]:>14.6g} {p.unit}")


def driver_line(result: Dict[str, Any]) -> str:
    """The result object the benchmark driver reads from the last line."""
    if "per_layer" in result:
        metrics = {p.name: {"value": result["per_layer"][p.name], "unit": p.unit} for p in PER_LAYER}
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name]["median"], "unit": m.unit}
            for m in END_TO_END
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_set(seed: int, size: str, seconds: float, trace_dir: Optional[str]) -> Dict[str, Any]:
    """Both round sets of every workload, as one record."""
    untraced = collect(WORKLOADS, seed, size, False, seconds)
    traced = collect(WORKLOADS, seed, size, True, seconds, trace_dir)
    workloads = {}
    for spec in WORKLOADS:
        result = summarise(spec, untraced[spec.name], False)
        layers = summarise(spec, traced[spec.name], True)
        result["per_layer"] = layers["per_layer"]
        result["correct"] = result["correct"] and layers["correct"]
        result["why"] = spec.why
        result["fail_share"] = result["failed"] / result["attempted"]
        print_result(spec.name, result)
        workloads[spec.name] = result
    return {
        "format": "hostbench-results-v1",
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "thread_pins": THREAD_PINS,
        },
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [p._asdict() for p in PER_LAYER],
        "workloads": workloads,
        "claim": None,
    }


def compare(path_a: str, path_b: str) -> int:
    """B against A: every end-to-end median within its bound, every exact figure identical."""
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    bad = False
    print(f"{'workload':<20s} {'metric':<14s} {'A median':>12s} {'B median':>12s} {'B worse by':>11s} {'bound':>6s}  verdict")
    for name in a:
        for m in END_TO_END:
            qa, qb = a[name]["end_to_end"][m.name], b[name]["end_to_end"][m.name]
            sign = 1.0 if m.better == "lower" else -1.0
            worse = sign * (qb["median"] - qa["median"]) / qa["median"]
            spread = max((q["q3"] - q["q1"]) / q["median"] for q in (qa, qb))
            b_wins_every_run = (
                max(qb["values"]) < min(qa["values"]) if m.better == "lower"
                else min(qb["values"]) > max(qa["values"])
            )
            if worse > m.bound:
                verdict, bad = "regressed", True
            elif spread > m.bound and not b_wins_every_run:
                verdict = f"unresolved (spread {spread:.1%})"
            else:
                verdict = "ok"
            print(
                f"{name:<20s} {m.name:<14s} {qa['median']:>12.6g} {qb['median']:>12.6g}"
                f" {worse:>+11.1%} {m.bound:>6.0%}  {verdict}"
            )
        la, lb = a[name]["per_layer"], b[name]["per_layer"]
        for metric in sorted(EXACT):
            if la[metric] != lb[metric]:
                print(f"{name:<20s} {metric} differs: {la[metric]!r} vs {lb[metric]!r}")
                bad = True
        if b[name]["fail_share"] > a[name]["fail_share"]:
            print(f"{name:<20s} fail_share rose: {a[name]['fail_share']} -> {b[name]['fail_share']}")
            bad = True
    print("FAIL" if bad else "agree")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    names = [spec.name for spec in WORKLOADS]
    parser = argparse.ArgumentParser(prog="python3 -m hostbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run this one workload (driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per workload and round set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics from untraced samples; 1: per-layer metrics from a traced round")
    parser.add_argument("--size", choices=SIZES, default="bench")
    parser.add_argument("--out", help="run every workload, untraced then traced, and write the record here")
    parser.add_argument("--trace-dir", help="also write each traced sample's spans as Chrome/Perfetto JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    try:
        if args.out:
            Path(args.out).write_text(
                json.dumps(run_set(args.seed, args.size, args.seconds, args.trace_dir), indent=1) + "\n"
            )
            return 0
        if not args.workload:
            parser.error("one of --workload, --out or --compare is required")
        (spec,) = (s for s in WORKLOADS if s.name == args.workload)
        traced = bool(args.trace)
        samples = collect([spec], args.seed, args.size, traced, args.seconds, args.trace_dir)
        result = summarise(spec, samples[spec.name], traced)
    except (ChildFailed, NotRepeatable) as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 1
    print_result(spec.name, result)
    print(driver_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
