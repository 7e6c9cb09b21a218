"""The metrics hostbench declares, and how each is computed from samples.

Two clocks appear here and are never mixed: units ``s`` / ``ms`` / ``us``
are *host* time (what the run cost us); unit ``sim_s`` is *simulated*
time (the model's output, which a host-time change must leave
bit-identical).

Host times of the end-to-end metrics are *speed-corrected*: each sample's
time is multiplied by ``PROBE_REFERENCE_S / probe_s``, where ``probe_s``
is what ``hostbench.child.speed_probe`` took right after the sample's
timed section.  The box this runs on changes speed by +-20% for minutes
at a time; uncorrected medians of 25-second runs spread 9-14% from run to
run, corrected ones 1-3% (README, "Steadiness").  Raw times stay
available as ``proc.wall_raw_s`` and ``proc.box_speed``.

End-to-end metrics come from untraced (``plain``) samples only.  Every
per-layer metric comes from the traced round: ``_s`` values are medians
over its traced samples, counts must repeat exactly from sample to
sample.  ``moves`` names the end-to-end metric and workload a change to
that layer should move — the prediction written down before measuring.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from hostbench.trace import TABLE


class WorkloadSpec(NamedTuple):
    name: str
    why: str  #: one sentence (``BENCHMARK.json`` ``why``)
    prices: Optional[str] = None  #: the per-layer metric its on/off variant prices
    variant_is_on: bool = False  #: whether the variant switches the instrument on


#: names are fixed — later issues refer to them; ``hostbench.workloads``
#: holds the functions and the longer reasons
WORKLOADS = (
    WorkloadSpec(
        "oracle_nl03c_k2",
        "golden differential oracle at nl03c shape: three cmat builds and the shard "
        "checksum dominate, so a cmat-build or cmat-cache change must show here",
    ),
    WorkloadSpec(
        "steps_nl03c_k2",
        "same cmat built once in set-up then applied over 12 lockstep steps: solver "
        "kernels and per-rank loops dominate, a build change must move only setup_s",
        prices="check.checker_overhead_frac",
        variant_is_on=True,
    ),
    WorkloadSpec(
        "serve_bursty_small",
        "repro serve on bursty traffic over tiny inputs with telemetry on: per-collective "
        "and per-metric call overheads dominate, cmat build is nil",
        prices="obs.telemetry_overhead_frac",
        variant_is_on=False,
    ),
    WorkloadSpec(
        "chaos_kitchen_sink",
        "same service and vmpi layers with checker, WAL, crash recovery and fault "
        "injector on, telemetry off: guards the checked and journaled path",
    ),
)


#: ``full`` is the nl03c-scale run ROADMAP names, ``bench`` what
#: ``BENCHMARK.json`` measures, ``tiny`` the tests' plumbing size
SIZES = ("tiny", "bench", "full")


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  #: share of the parent's median by which it may worsen


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


#: what ``speed_probe`` takes (median over the children of a whole run set)
#: on the box the benchmark was defined on: host times are quoted at this speed
PROBE_REFERENCE_S = 0.077

#: Run-to-run spreads of the corrected medians are 1-3% with an occasional
#: 10-13% episode the probe does not catch (README, "Steadiness"): 20%
#: clears the episodes, and set-up — one interpreter start per sample, the
#: noisiest — gets the widest bound the driver allows.  Memory repeats to 0.1%.
END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.20),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("ops_per_s", "ops/s", "higher", 0.20),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.03),
)

_BUILD = "wall_s on oracle_nl03c_k2, setup_s on steps_nl03c_k2; none on serve/chaos"
_XGYRO = "wall_s on oracle_nl03c_k2 (checksum, second build); setup_s on steps_nl03c_k2"
_CGYRO = "wall_s on serve_bursty_small and chaos_kitchen_sink (einsum dispatch), wall_s on steps_nl03c_k2 (per-rank loops)"
_VMPI = "wall_s / ops_per_s on serve_bursty_small and chaos_kitchen_sink; none (<2%) on the nl03c workloads"
_CHECK = "wall_s on chaos_kitchen_sink and oracle_nl03c_k2; calls are 0 on steps_nl03c_k2 and serve_bursty_small"
_OBS = "wall_s on serve_bursty_small only; calls are 0 on chaos_kitchen_sink and steps_nl03c_k2"
_CAMPAIGN = "wall_s on the two service workloads (<1% today)"
_SERVICE = "wall_s on chaos_kitchen_sink (WAL + recovery), wall_s on serve_bursty_small (control plane)"
_CONTEXT = "context for every workload; not gated"
_GUARD = "must repeat exactly: a host-time change leaves the model's output alone"

PER_LAYER = (
    PerLayer("collision.build_s", "s", "lower", _BUILD),
    PerLayer("collision.build_calls", "count", "lower", _BUILD),
    PerLayer("collision.blocks_built", "count", "lower", _BUILD),
    PerLayer("collision.apply_s", "s", "lower", "wall_s on steps_nl03c_k2"),
    PerLayer("collision.apply_calls", "count", "lower", "wall_s on steps_nl03c_k2"),
    PerLayer("collision.apply_gflop", "Gflop", "lower", "computed from apply_flops, not measured"),
    PerLayer("collision.apply_gflop_per_s", "Gflop/s", "higher", "wall_s on steps_nl03c_k2"),
    PerLayer("xgyro.finalize_self_s", "s", "lower", _XGYRO),
    PerLayer("xgyro.coll_step_self_s", "s", "lower", "wall_s on steps_nl03c_k2"),
    PerLayer("xgyro.step_self_s", "s", "lower", "wall_s on steps_nl03c_k2"),
    PerLayer("xgyro.steps", "count", "higher", _CONTEXT),
    PerLayer("xgyro.baseline_s", "s", "lower", _XGYRO),
    PerLayer("cgyro.streaming_self_s", "s", "lower", _CGYRO),
    PerLayer("cgyro.nonlinear_self_s", "s", "lower", "wall_s on steps_nl03c_k2"),
    PerLayer("cgyro.moments_s", "s", "lower", _CGYRO),
    PerLayer("cgyro.moments_calls", "count", "lower", _CGYRO),
    PerLayer("cgyro.rhs_s", "s", "lower", _CGYRO),
    PerLayer("cgyro.rhs_calls", "count", "lower", _CGYRO),
    PerLayer("cgyro.gather_s", "s", "lower", "wall_s on oracle_nl03c_k2"),
    PerLayer("vmpi.allreduce_calls", "count", "lower", _VMPI),
    PerLayer("vmpi.allreduce_self_s", "s", "lower", _VMPI),
    PerLayer("vmpi.alltoall_calls", "count", "lower", _VMPI),
    PerLayer("vmpi.alltoall_self_s", "s", "lower", _VMPI),
    PerLayer("vmpi.charge_collective_calls", "count", "lower", _VMPI),
    PerLayer("vmpi.charge_collective_s", "s", "lower", _VMPI),
    PerLayer("vmpi.charge_compute_calls", "count", "lower", _VMPI),
    PerLayer("vmpi.charge_compute_s", "s", "lower", _VMPI),
    PerLayer("vmpi.payload_mib", "MiB", "lower", "computed from block nbytes, not measured"),
    PerLayer("vmpi.us_per_collective", "us", "lower", _VMPI),
    PerLayer("vmpi.collectives_per_s", "1/s", "higher", _VMPI),
    PerLayer("vmpi.world_setup_s", "s", "lower", "setup_s on every workload"),
    PerLayer("vmpi.worlds", "count", "lower", _CONTEXT),
    PerLayer("check.checker_calls", "count", "lower", _CHECK),
    PerLayer("check.checker_s", "s", "lower", _CHECK),
    PerLayer("check.oracle_self_s", "s", "lower", "wall_s on oracle_nl03c_k2"),
    PerLayer("check.scenario_self_s", "s", "lower", "wall_s on chaos_kitchen_sink"),
    PerLayer("check.checker_overhead_frac", "share", "lower", "on/off price of the checker, measured on steps_nl03c_k2; 0 elsewhere"),
    PerLayer("obs.span_calls", "count", "lower", _OBS),
    PerLayer("obs.span_s", "s", "lower", _OBS),
    PerLayer("obs.metric_lookups", "count", "lower", _OBS),
    PerLayer("obs.metric_lookup_s", "s", "lower", _OBS),
    PerLayer("obs.telemetry_overhead_frac", "share", "lower", "on/off price of telemetry, measured on serve_bursty_small; 0 elsewhere"),
    PerLayer("campaign.cache_lookups", "count", "lower", _CAMPAIGN),
    PerLayer("campaign.cache_hits", "count", "higher", _CAMPAIGN),
    PerLayer("campaign.cache_hit_ratio", "share", "higher", _CAMPAIGN),
    PerLayer("campaign.dispatch_calls", "count", "lower", _CAMPAIGN),
    PerLayer("campaign.dispatch_self_s", "s", "lower", _CAMPAIGN),
    PerLayer("campaign.pack_s", "s", "lower", _CAMPAIGN),
    PerLayer("service.run_self_s", "s", "lower", _SERVICE),
    PerLayer("service.requests_offered", "count", "higher", _CONTEXT),
    PerLayer("service.requests_served", "count", "higher", _GUARD),
    PerLayer("service.requests_shed", "count", "lower", _GUARD),
    PerLayer("service.requests_dead", "count", "lower", _GUARD),
    PerLayer("service.jobs", "count", "lower", _CONTEXT),
    PerLayer("service.mean_k", "count", "higher", _CONTEXT),
    PerLayer("service.wal_events", "count", "lower", "wall_s on chaos_kitchen_sink"),
    PerLayer("service.wal_append_s", "s", "lower", "wall_s on chaos_kitchen_sink"),
    PerLayer("service.replay_s", "s", "lower", "wall_s on chaos_kitchen_sink"),
    PerLayer("service.recover_self_s", "s", "lower", "wall_s on chaos_kitchen_sink"),
    PerLayer("service.recoveries", "count", "lower", _CONTEXT),
    PerLayer("resilience.injector_calls", "count", "lower", "wall_s on chaos_kitchen_sink"),
    PerLayer("resilience.injector_s", "s", "lower", "wall_s on chaos_kitchen_sink"),
    PerLayer("machine.placement_calls", "count", "lower", "wall_s on serve_bursty_small (cost lookups a memoised collective cost would remove)"),
    PerLayer("machine.placement_s", "s", "lower", "wall_s on serve_bursty_small"),
    PerLayer("proc.cpu_s", "s", "lower", _CONTEXT),
    PerLayer("proc.import_s", "s", "lower", "setup_s on every workload"),
    PerLayer("proc.box_speed", "x", "higher", "reference probe time / measured probe time; 1 = the box the benchmark was defined on"),
    PerLayer("proc.wall_raw_s", "s", "lower", "wall_s before the speed correction"),
    PerLayer("proc.wall_min_s", "s", "lower", _CONTEXT),
    PerLayer("proc.wall_iqr_s", "s", "lower", _CONTEXT),
    PerLayer("proc.unattributed_frac", "share", "lower", "above 0.15 the wrapper table is missing a layer"),
    PerLayer("proc.fail_share", "share", "lower", "failed / attempted ops; may never rise"),
    PerLayer("trace.overhead_frac", "share", "lower", "traced wall_s / untraced median - 1; not gated"),
    PerLayer("trace.spans", "count", "lower", _CONTEXT),
    PerLayer("sim.makespan_s", "sim_s", "lower", _GUARD + " (steps_nl03c_k2; 0 elsewhere)"),
    PerLayer("sim.p99_ttr_s", "sim_s", "lower", _GUARD + " (the two service workloads; 0 elsewhere)"),
)

#: per-layer metrics that are exact functions of the inputs: two runs of
#: one commit, and a change that claims only speed, must agree on them
EXACT = frozenset(
    m.name for m in PER_LAYER if m.unit in ("count", "sim_s", "Gflop", "MiB")
) | {"campaign.cache_hit_ratio"}

_FACTS = ("sim.makespan_s", "sim.p99_ttr_s") + tuple(
    f"service.{what}"
    for what in ("requests_offered", "requests_served", "requests_shed", "requests_dead", "jobs", "mean_k")
)
_CHECKER_SPANS = [n for n in TABLE["check"] if n not in ("check.oracle", "check.scenario")]
_COLLECTIVES = ["vmpi.allreduce", "vmpi.iallreduce", "vmpi.alltoall", "vmpi.ialltoall"]


class NotRepeatable(ValueError):
    """A figure that must repeat exactly differed between samples of one run."""


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min, count and the samples themselves — with fewer
    than 11 samples no percentile beyond the quartiles is honest, so none is reported."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "values": values,
    }


def box_speed(sample: Dict[str, Any]) -> float:
    """How fast the box ran right after this sample's timed section; 1 = reference."""
    return PROBE_REFERENCE_S / sample["probe_s"]


def wall_at_reference(sample: Dict[str, Any]) -> float:
    """The sample's timed section in host seconds at the reference box speed."""
    return sample["wall_s"] * box_speed(sample)


def end_to_end(plain: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """The four end-to-end metrics of one workload from its untraced samples."""
    ops = plain[0]["ops"]
    series = {
        "wall_s": [wall_at_reference(s) for s in plain],
        "setup_s": [s["setup_s"] * box_speed(s) for s in plain],
        "ops_per_s": [ops / wall_at_reference(s) for s in plain],
        "peak_rss_mib": [s["peak_rss_mib"] for s in plain],
    }
    return {m.name: quartiles(series[m.name]) for m in END_TO_END}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_values(sample: Dict[str, Any]) -> Dict[str, float]:
    """The trace-derived per-layer figures of one traced sample."""
    spans, counts = sample["trace"]["spans"], sample["trace"]["counts"]
    facts, wall_s = sample["facts"], sample["wall_s"]

    def calls(*names: str) -> float:
        return sum(spans[n][0] for n in names)

    def total(*names: str) -> float:
        return sum(spans[n][1] for n in names)

    def own(*names: str) -> float:
        return sum(spans[n][2] for n in names)

    n_collectives = calls(*_COLLECTIVES)
    values = {
        "collision.build_s": total("collision.build"),
        "collision.build_calls": calls("collision.build"),
        "collision.blocks_built": counts["collision.blocks_built"],
        "collision.apply_s": total("collision.apply"),
        "collision.apply_calls": calls("collision.apply"),
        "collision.apply_gflop": counts["collision.apply_flop"] / 1e9,
        "collision.apply_gflop_per_s": _ratio(
            counts["collision.apply_flop"] / 1e9, total("collision.apply")
        ),
        "xgyro.finalize_self_s": own("xgyro.finalize"),
        "xgyro.coll_step_self_s": own("xgyro.coll_step"),
        "xgyro.step_self_s": own("xgyro.step", "xgyro.run_interval"),
        "xgyro.steps": calls("xgyro.step"),
        "xgyro.baseline_s": total("xgyro.baseline_init", "xgyro.baseline_interval"),
        "cgyro.streaming_self_s": own("cgyro.streaming"),
        "cgyro.nonlinear_self_s": own("cgyro.nonlinear"),
        "cgyro.moments_s": total("cgyro.moments"),
        "cgyro.moments_calls": calls("cgyro.moments"),
        "cgyro.rhs_s": total("cgyro.rhs"),
        "cgyro.rhs_calls": calls("cgyro.rhs"),
        "cgyro.gather_s": total("cgyro.gather"),
        "vmpi.allreduce_calls": calls("vmpi.allreduce", "vmpi.iallreduce"),
        "vmpi.allreduce_self_s": own("vmpi.allreduce", "vmpi.iallreduce"),
        "vmpi.alltoall_calls": calls("vmpi.alltoall", "vmpi.ialltoall"),
        "vmpi.alltoall_self_s": own("vmpi.alltoall", "vmpi.ialltoall"),
        "vmpi.charge_collective_calls": calls("vmpi.charge_collective"),
        "vmpi.charge_collective_s": total("vmpi.charge_collective"),
        "vmpi.charge_compute_calls": calls("vmpi.charge_compute"),
        "vmpi.charge_compute_s": total("vmpi.charge_compute"),
        "vmpi.payload_mib": counts["vmpi.payload_bytes"] / 2**20,
        "vmpi.us_per_collective": _ratio(total(*_COLLECTIVES) * 1e6, n_collectives),
        "vmpi.collectives_per_s": _ratio(n_collectives, wall_s),
        "vmpi.world_setup_s": total("vmpi.world_init", "vmpi.comm_init"),
        "vmpi.worlds": calls("vmpi.world_init"),
        "check.checker_calls": calls(*_CHECKER_SPANS),
        "check.checker_s": own(*_CHECKER_SPANS),
        "check.oracle_self_s": own("check.oracle"),
        "check.scenario_self_s": own("check.scenario"),
        "obs.span_calls": calls(*(n for n in TABLE["obs"] if n.startswith("obs.span_"))),
        "obs.span_s": own(*(n for n in TABLE["obs"] if n.startswith("obs.span_"))),
        "obs.metric_lookups": calls("obs.counter", "obs.gauge", "obs.histogram"),
        "obs.metric_lookup_s": own("obs.counter", "obs.gauge", "obs.histogram"),
        "campaign.cache_lookups": calls("campaign.cache_lookup"),
        "campaign.cache_hits": counts["campaign.cache_hits"],
        "campaign.cache_hit_ratio": _ratio(
            counts["campaign.cache_hits"], calls("campaign.cache_lookup")
        ),
        "campaign.dispatch_calls": calls("campaign.dispatch"),
        "campaign.dispatch_self_s": own("campaign.dispatch"),
        "campaign.pack_s": own("campaign.pack", "campaign.shape_for", "campaign.select_nodes"),
        "service.run_self_s": own("service.run", "service.resume"),
        "service.wal_events": calls("service.wal_append"),
        "service.wal_append_s": total("service.wal_append"),
        "service.replay_s": total("service.replay"),
        "service.recover_self_s": own("service.recover", "service.restore"),
        "service.recoveries": calls("service.recover"),
        "resilience.injector_calls": calls(*TABLE["resilience"]),
        "resilience.injector_s": own(*TABLE["resilience"]),
        "machine.placement_calls": calls(*TABLE["machine"]),
        "machine.placement_s": own(*TABLE["machine"]),
        "proc.unattributed_frac": sample["trace"]["timed_unattributed_s"] / wall_s,
        "trace.spans": sample["trace"]["n_spans"],
    }
    # figures the workload's check read off its own result; 0 where it has none
    values.update({name: facts.get(name, 0) for name in _FACTS})
    return values


def per_layer(
    spec: WorkloadSpec,
    traced: List[Dict[str, Any]],
    plain: List[Dict[str, Any]],
    variant: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Every per-layer metric of one workload from its traced round.

    ``plain`` are the untraced samples interleaved with the traced ones
    (the base of ``trace.overhead_frac`` and of the ``proc`` figures);
    ``variant`` are the instrument-on (or -off) samples of the same
    round, empty for a workload that prices no instrument.
    """
    rows = [_layer_values(s) for s in traced]
    values: Dict[str, float] = {}
    for name in rows[0]:
        column = [row[name] for row in rows]
        if name in EXACT:
            if len(set(column)) != 1:
                raise NotRepeatable(f"{name} must repeat exactly, got {sorted(set(column))}")
            values[name] = column[0]
        else:
            values[name] = statistics.median(column)
    walls = quartiles([s["wall_s"] for s in plain])
    values["proc.cpu_s"] = statistics.median(s["cpu_s"] for s in plain)
    values["proc.import_s"] = statistics.median(s["import_s"] for s in plain)
    values["proc.box_speed"] = statistics.median(box_speed(s) for s in plain)
    values["proc.wall_raw_s"] = walls["median"]
    values["proc.wall_min_s"] = walls["min"]
    values["proc.wall_iqr_s"] = walls["q3"] - walls["q1"]
    every = traced + plain + variant
    values["proc.fail_share"] = sum(s["failed"] for s in every) / sum(s["ops"] for s in every)
    # ratios between modes are taken at equal box speed
    base = statistics.median(wall_at_reference(s) for s in plain)
    values["trace.overhead_frac"] = (
        statistics.median(wall_at_reference(s) for s in traced) / base - 1.0
    )
    values["check.checker_overhead_frac"] = 0.0
    values["obs.telemetry_overhead_frac"] = 0.0
    if spec.prices:
        other = statistics.median(wall_at_reference(s) for s in variant)
        on, off = (other, base) if spec.variant_is_on else (base, other)
        values[spec.prices] = on / off - 1.0
    return {m.name: values[m.name] for m in PER_LAYER}


def contract(command: List[str], run_seconds: int) -> Dict[str, Any]:
    """``BENCHMARK.json`` in the shape the driver prescribes."""
    return {
        "command": command,
        "paths": ["hostbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
