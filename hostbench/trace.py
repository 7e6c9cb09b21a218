"""Host-time spans around ``repro``'s public entry points.

Nothing inside ``repro`` is edited: :class:`Tracer` replaces each
callable named in :data:`TABLE` with a timing wrapper for the life of
one child process.  A span is ``(entry, start, end, parent)``; the
wrappers share one stack, so a span's parent is whatever wrapped call
was open when it started, and its *self* time is its duration minus
the durations of its direct children.  Spans stay in memory until the
child has finished its timed section; aggregation and the optional
Chrome/Perfetto export happen afterwards.

Every dotted name is resolved before anything is patched: a renamed
entry point raises :class:`TraceTableError` instead of silently
dropping a layer to zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> {span name: dotted public callable}.  Layers are repro's
#: packages; span names are ``<layer>.<what>``.
TABLE: Dict[str, Dict[str, str]] = {
    "collision": {
        "collision.build": "repro.collision.CmatPropagator.build",
        "collision.apply": "repro.collision.apply_propagator",
    },
    "xgyro": {
        "xgyro.ensemble_init": "repro.xgyro.XgyroEnsemble.__init__",
        "xgyro.step": "repro.xgyro.XgyroEnsemble.step",
        "xgyro.run_interval": "repro.xgyro.XgyroEnsemble.run_report_interval",
        "xgyro.finalize": "repro.xgyro.SharedCmatScheme.finalize",
        "xgyro.coll_step": "repro.xgyro.SharedCmatScheme.ensemble_collision_step",
        "xgyro.baseline_init": "repro.xgyro.SequentialCgyroBaseline.__init__",
        "xgyro.baseline_interval": "repro.xgyro.SequentialCgyroBaseline.run_interval",
    },
    "cgyro": {
        "cgyro.streaming": "repro.cgyro.CgyroSimulation.streaming_phase",
        "cgyro.nonlinear": "repro.cgyro.CgyroSimulation.nonlinear_phase",
        "cgyro.gather": "repro.cgyro.CgyroSimulation.gather_h",
        "cgyro.moments": "repro.cgyro.fields.FieldSolver.partial_moments",
        "cgyro.rhs": "repro.cgyro.streaming.StreamingOperator.rhs",
    },
    "vmpi": {
        "vmpi.allreduce": "repro.vmpi.Communicator.allreduce",
        "vmpi.iallreduce": "repro.vmpi.Communicator.iallreduce",
        "vmpi.alltoall": "repro.vmpi.Communicator.alltoall",
        "vmpi.ialltoall": "repro.vmpi.Communicator.ialltoall",
        "vmpi.comm_init": "repro.vmpi.Communicator.__init__",
        "vmpi.world_init": "repro.vmpi.VirtualWorld.__init__",
        "vmpi.charge_collective": "repro.vmpi.VirtualWorld.charge_collective",
        "vmpi.charge_compute": "repro.vmpi.VirtualWorld.charge_compute",
    },
    "check": {
        "check.post": "repro.check.CollectiveChecker.post",
        "check.nb_post": "repro.check.CollectiveChecker.nb_post",
        "check.nb_wait": "repro.check.CollectiveChecker.nb_wait",
        "check.lockstep_collective": "repro.check.CollectiveChecker.lockstep_collective",
        "check.lockstep_post": "repro.check.CollectiveChecker.lockstep_post",
        "check.lockstep_wait": "repro.check.CollectiveChecker.lockstep_wait",
        "check.alltoall_blocks": "repro.check.CollectiveChecker.check_alltoall_blocks",
        "check.quiescent": "repro.check.CollectiveChecker.assert_quiescent",
        "check.oracle": "repro.check.differential_oracle",
        "check.scenario": "repro.check.run_scenario",
    },
    "obs": {
        # not VirtualWorld.span: it is called unconditionally and is a
        # null context without a tracer
        "obs.span_begin": "repro.obs.SpanTracer.begin",
        "obs.span_end": "repro.obs.SpanTracer.end",
        "obs.span_record": "repro.obs.SpanTracer.record",
        "obs.span_ctx": "repro.obs.SpanTracer.span",
        "obs.counter": "repro.obs.MetricsRegistry.counter",
        "obs.gauge": "repro.obs.MetricsRegistry.gauge",
        "obs.histogram": "repro.obs.MetricsRegistry.histogram",
    },
    "campaign": {
        "campaign.cache_lookup": "repro.campaign.CmatCache.lookup",
        "campaign.cache_insert": "repro.campaign.CmatCache.insert",
        "campaign.dispatch": "repro.campaign.CampaignRunner.dispatch",
        "campaign.pack": "repro.campaign.CampaignPacker.pack",
        # what the online service calls instead of pack()
        "campaign.shape_for": "repro.campaign.CampaignPacker.shape_for",
        "campaign.select_nodes": "repro.campaign.CampaignPacker.select_nodes",
    },
    "service": {
        "service.run": "repro.service.OnlineService.run",
        "service.resume": "repro.service.OnlineService.resume",
        "service.restore": "repro.service.OnlineService.restore",
        "service.wal_append": "repro.service.ServiceJournal.append",
        "service.replay": "repro.service.ServiceJournal.replay",
        "service.recover": "repro.service.recover_service",
    },
    "resilience": {
        "resilience.on_collective": "repro.resilience.FaultInjector.on_collective",
        "resilience.compute_multiplier": "repro.resilience.FaultInjector.compute_multiplier",
    },
    "machine": {
        "machine.nodes_of": "repro.machine.Placement.nodes_of",
        "machine.ranks_per_node_of": "repro.machine.Placement.ranks_per_node_of",
        "machine.spans_nodes": "repro.machine.Placement.spans_nodes",
    },
}


class TraceTableError(LookupError):
    """A dotted name in the wrapper table no longer resolves."""


def resolve(dotted: str) -> Tuple[Any, str]:
    """``(owner, attribute)`` of a dotted callable; the owner is a module or a class."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            owner: Any = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name is None or not module_name.startswith(exc.name):
                raise  # a real missing dependency, not a class in the path
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            target = getattr(owner, parts[-1])
        except AttributeError:
            break
        if not callable(target):
            break
        return owner, parts[-1]
    raise TraceTableError(f"hostbench wrapper table: {dotted!r} does not resolve to a callable")


# -- probes: counts taken at the boundary where the work happens ---------------
def _probe_build(counts, args, kwargs, result) -> None:
    counts["collision.blocks_built"] += result.shape[0] * result.shape[1]


def _probe_apply(counts, args, kwargs, result) -> None:
    from repro.collision.cmat import apply_flops

    n_ic, n_modes, nv, _ = args[0].shape
    counts["collision.apply_flop"] += apply_flops(n_ic, n_modes, nv)


def _probe_reduce_payload(counts, args, kwargs, result) -> None:
    counts["vmpi.payload_bytes"] += sum(getattr(v, "nbytes", 8) for v in args[1].values())


def _probe_alltoall_payload(counts, args, kwargs, result) -> None:
    counts["vmpi.payload_bytes"] += sum(b.nbytes for row in args[1].values() for b in row)


def _probe_cache_hit(counts, args, kwargs, result) -> None:
    if result is not None:
        counts["campaign.cache_hits"] += 1


PROBES: Dict[str, Callable[..., None]] = {
    "collision.build": _probe_build,
    "collision.apply": _probe_apply,
    "vmpi.allreduce": _probe_reduce_payload,
    "vmpi.iallreduce": _probe_reduce_payload,
    "vmpi.alltoall": _probe_alltoall_payload,
    "vmpi.ialltoall": _probe_alltoall_payload,
    "campaign.cache_lookup": _probe_cache_hit,
}

#: every counter a probe feeds; they read 0, not missing, when never hit
COUNTERS = (
    "collision.blocks_built",
    "collision.apply_flop",
    "vmpi.payload_bytes",
    "campaign.cache_hits",
)

Span = Tuple[int, float, float, int]  # (entry index, start, end, parent span index or -1)


class Tracer:
    """Installs the wrappers, holds the spans, and sums them up."""

    def __init__(self, table: Optional[Dict[str, Dict[str, str]]] = None) -> None:
        self.table = TABLE if table is None else table
        self.names: List[str] = []  # entry index -> span name
        self.layers: List[str] = []  # entry index -> layer
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        """Resolve every table entry, then patch them all."""
        resolved = [
            (layer, name, *resolve(dotted))
            for layer, entries in self.table.items()
            for name, dotted in entries.items()
        ]
        for layer, name, owner, attr in resolved:
            index = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(self._wrap(raw.__func__, index, PROBES.get(name)))
            else:
                wrapped = self._wrap(raw, index, PROBES.get(name))
            if isinstance(owner, ModuleType):
                # `from m import f` binds f in the importer: patch every
                # module of repro and hostbench that holds the original
                for mod_name, mod in list(sys.modules.items()):
                    if mod is not None and mod_name.split(".")[0] in ("repro", "hostbench"):
                        if vars(mod).get(attr) is raw:
                            self._patch(mod, attr, wrapped)
            else:
                self._patch(owner, attr, wrapped)

    def _patch(self, owner: Any, attr: str, wrapped: Any) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn: Callable, index: int, probe: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        return traced

    # -- after the run ---------------------------------------------------------
    def summary(self, timed_from: float, timed_to: float) -> Dict[str, Any]:
        """Per-span-name ``[calls, total_s, self_s]``, probe counts, and the
        attribution of the timed window ``[timed_from, timed_to]``."""
        spans = [s for s in self.spans if s is not None]
        child_s = [0.0] * len(self.spans)
        for index, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        by_name = {name: [0, 0.0, 0.0] for name in self.names}
        covered_s = 0.0  # time inside some span of the timed window
        root_self_s = 0.0  # self time of the window's outermost spans
        self_sum_s = 0.0
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            index, start, end, parent = span
            own = end - start - child_s[i]
            row = by_name[self.names[index]]
            row[0] += 1
            row[1] += end - start
            row[2] += own
            if timed_from <= start and end <= timed_to:
                self_sum_s += own
                if parent < 0:
                    covered_s += end - start
                    root_self_s += own
        return {
            "spans": by_name,
            "counts": dict(self.counts),
            "n_spans": len(spans),
            "timed_self_sum_s": self_sum_s,
            "timed_unattributed_s": (timed_to - timed_from) - covered_s + root_self_s,
        }

    def write_chrome(self, path: Path, sample: int) -> None:
        """The spans as a Chrome / Perfetto ``traceEvents`` file; one ``pid`` per sample."""
        recorded = [(i, span) for i, span in enumerate(self.spans) if span is not None]
        t0 = min((span[1] for _, span in recorded), default=0.0)
        events = [
            {
                "name": self.names[index],
                "cat": self.layers[index],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": sample,
                "tid": 0,
                "args": {"id": i, "parent": parent},
            }
            for i, (index, start, end, parent) in recorded
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

