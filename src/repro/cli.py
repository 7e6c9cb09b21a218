"""Command-line interface.

Mirrors how the real tools are driven — a simulation directory with an
``input.cgyro`` (or an ``input.xgyro`` listing member directories) and
a launcher invocation — against the virtual machine:

    python -m repro run-cgyro  DIR   --nodes 4 --machine generic --reports 2
    python -m repro run-xgyro  FILE  --nodes 4 --machine generic --reports 1
    python -m repro run-xgyro  FILE  --faults plan.json --checkpoint-interval 2
    python -m repro plan       DIR   --members 8
    python -m repro linear     DIR   --modes 1,2,3
    python -m repro figure2    [--measure-steps 1]
    python -m repro campaign   REQUESTS.json --nodes 4 [--fifo] [--no-cache]
                               [--flaky-node 0:plan.json --max-attempts 3
                                --backoff 30 --quarantine-after 2]
    python -m repro serve      [--traffic poisson|bursty|diurnal --rate R
                                --horizon S --max-hold S --min-batch N
                                --min-nodes N --idle-reclaim S --fifo
                                --smoke --json OUT.json]
    python -m repro check-trace [TRACE.json ...] [--figure1] [--figure3]
    python -m repro oracle     FILE  --reports 2 --baseline member
    python -m repro trace      [FILE] [--nl03c] [--spans-out S.jsonl]
                               [--chrome-out T.json]
    python -m repro metrics    [FILE] [--nl03c] [--json M.json]
                               [--load M.json --quantile NAME:q]
    python -m repro perf-gate  BENCH.json BASELINE.json
    python -m repro monitor    [--smoke --scenario NAME --window S
                                --rules RULES.json --json OUT.json
                                --rollups-out DIR]

Every command prints human-readable tables; ``run-*`` optionally write
``out.cgyro.timing`` CSVs next to the inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.cgyro.solver import OVERLAP_MODES, CgyroSimulation
from repro.cgyro.timing import render_report
from repro.cgyro.io import parse_input_file, write_timing_csv
from repro.cgyro.linear import LinearSolver
from repro.cgyro.presets import NL03C_SCALED_MEM_PER_RANK, nl03c_scaled
from repro.machine.presets import (
    degraded_fabric_cluster,
    frontier_like,
    generic_cluster,
    mixed_generation_cluster,
    single_node,
    throttled_frontier,
    tiered_gpu_cluster,
)
from repro.machine.model import MachineModel
from repro.perf.memory import cmat_dominance_ratio, min_nodes_required
from repro.perf.report import figure2_comparison, render_figure2
from repro.perf.calibrate import PAPER_TARGETS
from repro.records import read_json, write_json
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble
from repro.xgyro.input import parse_ensemble


def _machine_from_args(args: argparse.Namespace) -> MachineModel:
    if args.machine == "frontier":
        return frontier_like(
            n_nodes=args.nodes, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK
        )
    if args.machine == "generic":
        return generic_cluster(n_nodes=args.nodes, ranks_per_node=args.ranks_per_node)
    if args.machine == "single":
        return single_node(ranks=args.ranks_per_node)
    if args.machine == "throttled-frontier":
        return throttled_frontier(
            n_nodes=args.nodes,
            n_throttled=max(1, args.nodes // 2),
            mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK,
        )
    if args.machine == "mixed-generation":
        return mixed_generation_cluster(
            args.nodes, ranks_per_node=args.ranks_per_node
        )
    if args.machine == "degraded-fabric":
        return degraded_fabric_cluster(
            args.nodes,
            ranks_per_node=args.ranks_per_node,
            n_degraded=max(1, args.nodes // 4),
        )
    if args.machine == "tiered-gpu":
        return tiered_gpu_cluster(args.nodes, ranks_per_node=args.ranks_per_node)
    raise ReproError(f"unknown machine {args.machine!r}")


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine",
        choices=[
            "frontier",
            "generic",
            "single",
            "throttled-frontier",
            "mixed-generation",
            "degraded-fabric",
            "tiered-gpu",
        ],
        default="generic",
        help="machine preset (default: generic; the last four are "
        "heterogeneous)",
    )
    parser.add_argument("--nodes", type=int, default=2, help="node count")
    parser.add_argument(
        "--ranks-per-node", type=int, default=4, help="ranks per node (non-frontier)"
    )


def _input_from_dir(directory: str):
    path = Path(directory)
    if path.is_dir():
        path = path / "input.cgyro"
    return parse_input_file(path), path.parent


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_run_cgyro(args: argparse.Namespace) -> int:
    inp, directory = _input_from_dir(args.directory)
    machine = _machine_from_args(args)
    world = VirtualWorld(machine, enforce_memory=args.enforce_memory)
    sim = CgyroSimulation(world, range(world.n_ranks), inp)
    if args.resume:
        sim.load_checkpoint(args.resume)
        print(f"resumed from {args.resume} at step {sim.step_count}")
    print(f"{inp.name}: {sim.decomp.describe()} on {machine.name}")
    rows = sim.run(args.reports)
    print(render_report(rows, label=inp.name))
    flux, phi2 = rows[-1].flux, rows[-1].phi2
    print("flux Q(n): " + " ".join(f"{q:+.3e}" for q in flux))
    print("amp |phi|^2(n): " + " ".join(f"{p:.3e}" for p in phi2))
    if args.timing_out:
        write_timing_csv(rows, args.timing_out)
        print(f"timing written to {args.timing_out}")
    if args.checkpoint:
        sim.save_checkpoint(args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _run_xgyro_faulted(args: argparse.Namespace, inputs, machine) -> int:
    """run-xgyro under a fault plan: resilient runner + recovery report."""
    from repro.perf.report import render_recovery_report
    from repro.resilience.faults import FaultPlan
    from repro.resilience.runner import ResilientXgyroRunner

    plan = FaultPlan.from_file(args.faults)
    world = VirtualWorld(machine, enforce_memory=args.enforce_memory)
    runner = ResilientXgyroRunner(
        world,
        inputs,
        plan=plan,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_dir=args.checkpoint_dir,
        overlap=args.overlap,
    )
    ensemble = runner.ensemble
    member = ensemble.members[0]
    n_steps = args.reports * member.inp.steps_per_report
    print(
        f"xgyro ensemble: k={ensemble.n_members} members x "
        f"{len(member.ranks)} ranks on {machine.name}; "
        f"fault plan: {len(plan.specs)} spec(s), "
        f"detection timeout {plan.detection_timeout_s:g} s; "
        f"checkpoint every {runner.checkpoint_interval} step(s)"
    )
    result = runner.run_steps(n_steps)
    print(render_recovery_report(result))
    for m in ensemble.members:
        flux, _ = m.diagnostics()
        print(f"  {m.label:<28s} flux " + " ".join(f"{q:+.3e}" for q in flux))
    return 0


def cmd_run_xgyro(args: argparse.Namespace) -> int:
    inputs = parse_ensemble(args.input)
    machine = _machine_from_args(args)
    if args.faults:
        return _run_xgyro_faulted(args, inputs, machine)
    world = VirtualWorld(machine, enforce_memory=args.enforce_memory)
    ensemble = XgyroEnsemble(world, inputs, overlap=args.overlap)
    member = ensemble.members[0]
    print(
        f"xgyro ensemble: k={ensemble.n_members} members x "
        f"{len(member.ranks)} ranks on {machine.name}; "
        f"shared cmat {world.ledgers[0].size_of('cmat')} B/rank; "
        f"overlap={args.overlap}"
    )
    rows = []
    for _ in range(args.reports):
        report = ensemble.run_report_interval()
        ens = report.ensemble
        rows.append(ens)
        print(
            f"step {ens.step}: wall {ens.wall_s:.3f} s, "
            f"str comm {ens.str_comm_s:.3f} s, comm total {ens.comm_s:.3f} s"
        )
        for m, row in zip(ensemble.members, report.member_rows):
            print(
                f"  {m.inp.name:<20s} flux "
                + " ".join(f"{q:+.3e}" for q in row.flux)
            )
    if args.timing_out:
        write_timing_csv(rows, args.timing_out)
        print(f"timing written to {args.timing_out}")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    from repro.xgyro.study import XgyroStudy

    machine = _machine_from_args(args)
    study = XgyroStudy(args.directory, machine, enforce_memory=args.enforce_memory)
    study.run(args.reports)
    study.write_outputs(checkpoints=not args.no_checkpoints)
    print(study.summary())
    print(f"\noutputs written under {study.study_dir}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    if args.members < 1:
        raise ReproError(f"--members must be >= 1, got {args.members}")
    if args.autotune or args.smoke:
        return _cmd_plan_autotune(args)
    if args.directory is None:
        raise ReproError("plan needs a simulation directory (or --smoke)")
    inp, _ = _input_from_dir(args.directory)
    machine = _machine_from_args(args)
    print(f"{inp.name}: grid {inp.grid_dims().describe()}")
    print(f"cmat dominance: {cmat_dominance_ratio(inp):.1f}x other buffers")
    for k in range(1, args.members + 1):
        try:
            nodes = min_nodes_required(inp, machine, ensemble_size=k)
            print(f"  {k} member(s) sharing cmat: {nodes} node(s) of {machine.name}")
        except ReproError as exc:
            print(f"  {k} member(s): does not fit ({exc})")
    return 0


def _cmd_plan_autotune(args: argparse.Namespace) -> int:
    """The autotuner: search, report, optionally validate and save."""
    from repro.plan.planner import (
        Planner,
        render_plan_report,
        run_choice,
        validate_plan,
    )

    if args.smoke:
        # self-contained CI rot check: a tiny heterogeneous machine and
        # the built-in small input; numbers are not representative
        from repro.cgyro.presets import small_test

        machine = mixed_generation_cluster(4, ranks_per_node=4)
        if args.directory is not None:
            inp, _ = _input_from_dir(args.directory)
        else:
            inp = small_test()
    else:
        if args.directory is None:
            raise ReproError(
                "plan --autotune needs a simulation directory (or --smoke)"
            )
        inp, _ = _input_from_dir(args.directory)
        machine = _machine_from_args(args)
    planner = Planner(machine, inp, n_members=args.members)
    plan = planner.plan(seed=args.seed)
    validation = None
    default_actual = None
    if args.validate:
        validation = validate_plan(plan, inp, machine)
        default_actual = run_choice(inp, machine, planner.default_choice())
    print(render_plan_report(plan, validation, default_actual_s=default_actual))
    if args.json:
        plan.save(args.json)
        print(f"plan written to {args.json}")
    return 0


def cmd_linear(args: argparse.Namespace) -> int:
    inp, _ = _input_from_dir(args.directory)
    if inp.nonlinear:
        inp = inp.with_updates(nonlinear=False)
        print("note: NONLINEAR_FLAG disabled for linear analysis")
    solver = LinearSolver(inp)
    try:
        modes = [int(m) for m in args.modes.split(",")] if args.modes else None
    except ValueError:
        raise ReproError(
            f"--modes wants comma-separated integers, got {args.modes!r}"
        ) from None
    print(f"{inp.name}: linear spectrum ({args.method})")
    print(f"{'n':>4s} {'gamma':>12s} {'omega':>12s} {'stable':>8s}")
    for res in solver.spectrum(modes=modes, method=args.method, tol=args.tol):
        tag = "NO" if res.unstable else "yes"
        print(f"{res.n_mode:>4d} {res.gamma:>12.6f} {res.omega:>12.6f} {tag:>8s}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.cgyro.presets import small_test
    from repro.cgyro.verification import (
        split_step_convergence,
        streaming_convergence,
    )

    if args.directory:
        inp, _ = _input_from_dir(args.directory)
        inp = inp.with_updates(nonlinear=False)
    else:
        inp = small_test(dlntdr=(4.0, 4.0), nu=0.1, upwind_coeff=0.2)
    print(f"verification on {inp.name}: streaming RK4 self-convergence")
    stream = streaming_convergence(inp)
    print(stream.render())
    print("\nfull split step (streaming + implicit collisions)")
    split = split_step_convergence(inp)
    print(split.render())
    ok = 3.0 < stream.observed_order < 5.0 and 0.5 < split.observed_order < 2.0
    print(f"\nverification {'PASSED' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.batcher import SignatureBatcher
    from repro.campaign.packer import CampaignPacker
    from repro.campaign.request import RequestQueue
    from repro.campaign.runner import CampaignRunner
    from repro.perf.report import render_campaign_report
    from repro.resilience.faults import FaultPlan
    from repro.resilience.health import NodeHealthTracker, RetryPolicy

    machine = _machine_from_args(args)
    queue = RequestQueue.from_json(args.requests)
    n_pending = len(queue)

    def _keyed_plans(specs, flag, metavar):
        plans = {}
        for spec in specs or ():
            idx, _, path = spec.partition(":")
            if not path or not idx.isdecimal():
                raise ReproError(
                    f"{flag} wants {metavar}:PLAN.json, got {spec!r}"
                )
            plans[int(idx)] = FaultPlan.from_file(path)
        return plans

    fault_plans = _keyed_plans(args.faults, "--faults", "JOB_INDEX")
    node_faults = _keyed_plans(args.flaky_node, "--flaky-node", "NODE")
    tuned_plan = None
    if getattr(args, "plan", None):
        from repro.plan.artifact import load_plan

        tuned_plan = load_plan(args.plan)
    if args.fifo:
        # FIFO baseline: one request per job, no sharing
        batcher = SignatureBatcher(max_batch=1)
        packer = CampaignPacker(machine, prefer_larger_k=False)
    else:
        batcher = SignatureBatcher(max_batch=args.max_batch)
        packer = CampaignPacker(machine, plan=tuned_plan)
    retry = (
        None
        if args.max_attempts == 0
        else RetryPolicy(
            max_attempts=args.max_attempts, base_backoff_s=args.backoff
        )
    )
    health = NodeHealthTracker(
        quarantine_threshold=(
            None if args.quarantine_after == 0 else args.quarantine_after
        )
    )
    runner = CampaignRunner(
        machine,
        batcher=batcher,
        packer=packer,
        use_cache=not args.no_cache,
        fault_plans=fault_plans,
        node_faults=node_faults,
        retry=retry,
        health=health,
        checkpoint_interval=args.checkpoint_interval,
        enforce_memory=args.enforce_memory,
    )
    mode = "FIFO (k=1, unbatched)" if args.fifo else "signature-batched"
    print(
        f"campaign: {n_pending} request(s) on {machine.name}, {mode}, "
        f"cache {'off' if args.no_cache else 'on'}"
    )
    report = runner.run(queue, steps=args.steps)
    print(render_campaign_report(report))
    if args.json:
        write_json(args.json, report.to_dict(), indent=2, sort_keys=False)
        print(f"report written to {args.json}")
    return 0


def _serve_workload(name: str):
    """A named workload pool — deliberately repetitive inputs so the
    arrival stream carries real signature-sharing opportunity."""
    from repro.cgyro.presets import linear_benchmark, small_test

    if name == "small":
        return [
            small_test(),
            small_test(nu=0.2),
            small_test(n_energy=4),
        ]
    if name == "linear":
        return [
            linear_benchmark(),
            linear_benchmark(nu=0.1),
            linear_benchmark(n_energy=8),
        ]
    if name == "nl03c":
        return [
            nl03c_scaled(),
            nl03c_scaled(nu=0.2),
            nl03c_scaled(delta_t=0.005),
        ]
    raise ReproError(f"unknown workload {name!r}")


def _serve_tenants(specs):
    """Parse repeated ``--tenant NAME:WEIGHT:SLO_S`` flags."""
    from repro.service.traffic import DEFAULT_TENANTS, TenantSpec

    if not specs:
        return DEFAULT_TENANTS
    tenants = []
    for spec in specs:
        try:
            name, weight, slo_s = spec.split(":")
            weight, slo_s = float(weight), float(slo_s)
        except ValueError:
            raise ReproError(
                f"--tenant wants NAME:WEIGHT:SLO_S, got {spec!r}"
            ) from None
        tenants.append(TenantSpec(name, weight=weight, slo_s=slo_s))
    return tuple(tenants)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import Telemetry
    from repro.service.loop import OnlineService
    from repro.service.report import render_service_report
    from repro.service.traffic import BurstyTraffic, DiurnalTraffic, PoissonTraffic
    from repro.service.window import WindowPolicy

    if args.smoke:
        # fixed, fast configuration for the CI lane: a couple of
        # simulated minutes of Poisson traffic on the small workload
        args.workload = "small"
        args.machine, args.nodes = "generic", 4
        args.traffic, args.rate = "poisson", 0.05
        args.horizon = 240.0
        args.max_hold, args.min_batch = 30.0, 2
        args.min_nodes, args.max_nodes = 1, 4
        args.provision_delay, args.idle_reclaim = 15.0, 120.0
    # a model's own flags default to None, so one it does not read is
    # refused rather than dropped
    for dest, model, default in (
        ("burst_rate", "bursty", 0.5), ("mean_calm", "bursty", 300.0),
        ("mean_burst", "bursty", 60.0), ("peak_rate", "diurnal", 0.5),
        ("period", "diurnal", 3600.0),
    ):
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.traffic != model:
            flag = "--" + dest.replace("_", "-")
            raise ReproError(f"{flag} is read only by --traffic {model}, not {args.traffic}")
    machine = _machine_from_args(args)
    workload = _serve_workload(args.workload)
    tenants = _serve_tenants(args.tenant)
    if args.traffic == "poisson":
        traffic = PoissonTraffic(
            workload, rate_per_s=args.rate, tenants=tenants, seed=args.seed
        )
    elif args.traffic == "bursty":
        traffic = BurstyTraffic(
            workload,
            calm_rate_per_s=args.rate,
            burst_rate_per_s=args.burst_rate,
            mean_calm_s=args.mean_calm,
            mean_burst_s=args.mean_burst,
            tenants=tenants,
            seed=args.seed,
        )
    elif args.traffic == "diurnal":
        traffic = DiurnalTraffic(
            workload,
            base_rate_per_s=args.rate,
            peak_rate_per_s=args.peak_rate,
            period_s=args.period,
            tenants=tenants,
            seed=args.seed,
        )
    else:  # pragma: no cover - argparse choices guard this
        raise ReproError(f"unknown traffic model {args.traffic!r}")
    if args.fifo:
        window = WindowPolicy(max_hold_s=0.0, min_batch=1, max_batch=1)
    else:
        window = WindowPolicy(
            max_hold_s=args.max_hold,
            min_batch=args.min_batch,
            max_batch=args.max_batch,
        )
    weights = {t.name: t.weight for t in tenants}
    telemetry = Telemetry()
    service = OnlineService(
        machine,
        traffic,
        window=window,
        max_pending=args.max_pending,
        weights=weights,
        steps=args.steps,
        min_nodes=args.min_nodes,
        max_nodes=args.max_nodes,
        provision_delay_s=args.provision_delay,
        idle_reclaim_s=args.idle_reclaim,
        prefer_larger_k=not args.fifo,
        use_cache=not args.no_cache,
        telemetry=telemetry,
    )
    mode = "FIFO (k=1, unbatched)" if args.fifo else "windowed signature batching"
    print(
        f"serve: {args.traffic} traffic on {machine.name}, {mode}, "
        f"horizon {args.horizon:g} s, seed {args.seed}"
    )
    report = service.run(args.horizon)
    print(render_service_report(report))
    if args.json:
        write_json(args.json, report.to_dict(), indent=2)
        print(f"report written to {args.json}")
    if args.smoke and (
        report.n_served + report.n_shed + report.n_abandoned
    ) < report.offered:
        print("smoke: some requests were neither served nor shed", file=sys.stderr)
        return 1
    return 0


def _checked_demo_trace(figure: str, overlap: str = "off"):
    """Run a tiny checker-installed demo; return its recorded events.

    ``figure1`` is one traced CGYRO step (nonlinear), ``figure3`` one
    traced step of a k=4 shared-cmat ensemble — the smallest runs that
    exhibit each figure's full communicator structure.  ``overlap``
    switches the demo to the nonblocking pipelined schedules, proving
    them protocol-clean under the same checker.
    """
    from repro.cgyro.presets import small_test
    from repro.check.checker import CollectiveChecker
    from repro.machine.presets import generic_cluster

    checker = CollectiveChecker()
    if figure == "figure1":
        machine = generic_cluster(n_nodes=2, ranks_per_node=4)
        world = VirtualWorld(machine)
        world.install_checker(checker)
        sim = CgyroSimulation(
            world,
            range(world.n_ranks),
            small_test(nonlinear=True),
            overlap=overlap,
        )
        sim.step()
    else:
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        world = VirtualWorld(machine)
        world.install_checker(checker)
        inputs = [
            small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
            for i in range(4)
        ]
        XgyroEnsemble(world, inputs, overlap=overlap).step()
    checker.assert_quiescent()
    return world.trace


def cmd_check_trace(args: argparse.Namespace) -> int:
    from repro.check.tracelint import (
        lint_trace,
        replay_trace,
        verify_figure1,
        verify_figure3,
    )
    from repro.vmpi.export import export_trace_json, load_trace_json

    jobs = []  # (source name, events, figure check or None)
    for figure in ("figure1", "figure3"):
        if getattr(args, figure):
            trace = _checked_demo_trace(figure, overlap=args.overlap)
            if args.save:
                out = Path(args.save) / f"{figure}.trace.json"
                out.parent.mkdir(parents=True, exist_ok=True)
                export_trace_json(trace, out)
                print(f"{figure} demo trace written to {out}")
            jobs.append((f"<built-in {figure} demo>", trace.events, figure))
    for path in args.traces:
        events = load_trace_json(path)
        figure = (
            "figure1" if args.figure1 else "figure3" if args.figure3 else None
        )
        jobs.append((path, events, figure))
    if not jobs:
        print("nothing to check: give trace files and/or --figure1/--figure3")
        return 2
    failed = False
    for name, events, figure in jobs:
        print(f"== {name}")
        reports = [lint_trace(events)]
        if figure == "figure1":
            reports.append(verify_figure1(events))
        elif figure == "figure3":
            reports.append(verify_figure3(events))
        for rep in reports:
            print(rep.render())
            failed = failed or not rep.ok
        if not args.no_replay:
            ck = replay_trace(events)  # raises ProtocolError on mismatch
            print(
                f"replay: {ck.n_completed} collectives re-executed under "
                f"blocking semantics — OK"
            )
    return 1 if failed else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    from repro.check.oracle import differential_oracle

    inputs = parse_ensemble(args.input)
    machine = _machine_from_args(args)
    report = differential_oracle(
        inputs,
        machine,
        n_reports=args.reports,
        baseline=args.baseline,
        rtol=args.rtol,
        atol=args.atol,
        enforce_memory=args.enforce_memory,
        overlap=args.overlap,
    )
    print(report.render())
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def _traced_run(args: argparse.Namespace):
    """Run an ensemble with telemetry installed; returns the bundle.

    Input selection: an ``input.xgyro`` path if given, the nl03c k=4
    headline configuration under ``--nl03c``, else a small built-in
    k=4 demo that runs in seconds.
    """
    from repro.cgyro.presets import small_test
    from repro.machine.presets import generic_cluster
    from repro.obs import Telemetry

    tele = Telemetry()
    if args.input:
        inputs = parse_ensemble(args.input)
        machine = _machine_from_args(args)
    elif args.nl03c:
        machine, inputs = _nl03c_ensemble(4)
    else:
        machine = generic_cluster(n_nodes=4, ranks_per_node=4)
        inputs = [
            small_test(name=f"m{i}", dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
            for i in range(4)
        ]
    world = VirtualWorld(machine, enforce_memory=args.enforce_memory)
    tele.install(world)
    ensemble = XgyroEnsemble(world, inputs, overlap=args.overlap)
    for _ in range(args.reports):
        ensemble.run_report_interval()
    print(
        f"traced: k={ensemble.n_members} members x "
        f"{len(ensemble.members[0].ranks)} ranks on {machine.name}, "
        f"{args.reports} report interval(s), {len(tele.tracer)} span(s)"
    )
    return tele, world, ensemble


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.critical import render_telemetry_report
    from repro.obs.export import export_spans_chrome, export_spans_jsonl

    tele, _world, _ensemble = _traced_run(args)
    spans = tele.tracer.spans
    print(render_telemetry_report(spans, metrics=tele.metrics,
                                  top_stalls=args.top_stalls))
    if args.spans_out:
        n = export_spans_jsonl(spans, args.spans_out)
        print(f"{n} span(s) written to {args.spans_out}")
    if args.chrome_out:
        n = export_spans_chrome(spans, args.chrome_out)
        print(f"Chrome/Perfetto trace of {n} span(s) written to {args.chrome_out}")
    return 0


def _parse_quantile_spec(spec: str) -> Tuple[str, float]:
    """Split a ``NAME:q`` spec (e.g. ``ttr_seconds:0.99``)."""
    name, sep, qtext = spec.rpartition(":")
    if not sep or not name:
        raise ReproError(
            f"--quantile wants NAME:q (e.g. vmpi_wait_seconds:0.99), "
            f"got {spec!r}"
        )
    try:
        q = float(qtext)
    except ValueError:
        raise ReproError(f"--quantile fraction is not a number: {qtext!r}")
    return name, q


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.load:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry.from_dict(
            read_json(args.load, error=ReproError), what=args.load
        )
    else:
        tele, _world, _ensemble = _traced_run(args)
        registry = tele.metrics
    if args.json:
        write_json(args.json, registry.to_dict(), indent=1)
        print(f"metrics snapshot written to {args.json}")
    for spec in args.quantile or []:
        from repro.obs.metrics import Histogram

        name, q = _parse_quantile_spec(spec)
        series = registry.histograms_named(name)
        if not series:
            raise ReproError(f"no histogram named {name!r} in the registry")
        merged = Histogram(series[0][1].buckets)
        for _labels, hist in series:
            merged.merge(hist)
        value = merged.quantile(q)
        shown = "n/a" if value != value else f"{value:.6g}"
        print(
            f"{name} q={q:g}: {shown} "
            f"({merged.count} observation(s), {len(series)} series merged)"
        )
    if not args.quantile:
        print(registry.render_prometheus(), end="")
    return 0


def cmd_perf_gate(args: argparse.Namespace) -> int:
    from repro.obs.gate import run_gate

    result = run_gate(args.current, args.baseline)
    print(result.render())
    return 0 if result.ok else 1


def _chaos_scenarios(args: argparse.Namespace):
    """The built-in chaos scenarios ``--scenario`` names (all of them
    when it names none), in built-in order."""
    from repro.check.invariants import builtin_scenarios

    scenarios = builtin_scenarios(smoke=args.smoke)
    if args.scenario:
        wanted = set(args.scenario)
        known = {s.name for s in scenarios}
        missing = sorted(wanted - known)
        if missing:
            raise ReproError(
                f"unknown chaos scenario(s) {missing}; "
                f"known: {sorted(known)}"
            )
        scenarios = tuple(s for s in scenarios if s.name in wanted)
    return scenarios


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.check.invariants import render_chaos_report, run_scenario
    from repro.obs import Telemetry

    scenarios = _chaos_scenarios(args)
    if args.seed is not None:
        scenarios = tuple(
            dataclasses.replace(s, seed=args.seed) for s in scenarios
        )
    telemetry = Telemetry()
    results = []
    for scenario in scenarios:
        print(f"chaos: running {scenario.name!r} ({scenario.description})")
        results.append(
            run_scenario(
                scenario, telemetry=telemetry, raise_on_violation=False
            )
        )
    print(render_chaos_report(results))
    if args.json:
        write_json(args.json, [r.to_dict() for r in results], indent=1)
        print(f"chaos results written to {args.json}")
    return 0 if all(r.ok for r in results) else 1


def cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs import Telemetry
    from repro.obs.monitor import (
        ServiceMonitor,
        default_rulebook,
        export_rollups_jsonl,
        load_rulebook,
        render_monitor_report,
    )

    scenarios = _chaos_scenarios(args)
    rules = (
        load_rulebook(args.rules) if args.rules else default_rulebook()
    )
    summaries: dict = {}
    for scenario in scenarios:
        telemetry = Telemetry()
        monitor = ServiceMonitor(window_s=args.window, rules=rules)
        service = scenario.build(telemetry=telemetry, monitor=monitor)
        service.run(scenario.horizon_s)
        summaries[scenario.name] = summary = monitor.summary()
        print(f"monitor: {scenario.name} ({scenario.description})")
        print(render_monitor_report(summary))
        if args.rollups_out:
            out_dir = Path(args.rollups_out)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{scenario.name}.jsonl"
            export_rollups_jsonl(monitor.rollups, path)
            print(f"{len(monitor.rollups)} rollup(s) written to {path}")
    if args.json:
        write_json(args.json, {n: s.to_dict() for n, s in summaries.items()}, indent=1)
        print(f"monitor summaries written to {args.json}")
    # a page left firing at the end of the horizon is a failed drill:
    # the fault cleared but the alert did not resolve
    stuck = {
        name: list(s.firing_at_end)
        for name, s in summaries.items()
        if s.firing_at_end
    }
    if stuck:
        print(f"unresolved alerts at end of horizon: {stuck}")
        return 1
    return 0


def _nl03c_ensemble(k: int):
    """Figure 2's machine and the first ``k`` of its nl03c members."""
    machine = frontier_like(
        n_nodes=32, mem_per_rank_bytes=NL03C_SCALED_MEM_PER_RANK
    )
    base = nl03c_scaled()
    inputs = [
        base.with_updates(dlntdr=(3.0 + 0.1 * m, 3.0 + 0.1 * m), name=f"nl03c.m{m}")
        for m in range(k)
    ]
    return machine, inputs


def cmd_figure2(args: argparse.Namespace) -> int:
    machine, inputs = _nl03c_ensemble(8)
    result = figure2_comparison(
        inputs, machine, measure_steps=args.measure_steps, enforce_memory=True
    )
    print(render_figure2(result, paper=PAPER_TARGETS))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XGYRO shared-cmat reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-cgyro", help="run one simulation")
    p.add_argument("directory", help="simulation dir (or input.cgyro path)")
    _add_machine_args(p)
    p.add_argument("--reports", type=int, default=1)
    p.add_argument("--enforce-memory", action="store_true")
    p.add_argument("--timing-out", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--resume", default=None)
    p.set_defaults(func=cmd_run_cgyro)

    p = sub.add_parser("run-xgyro", help="run an ensemble")
    p.add_argument("input", help="input.xgyro path")
    _add_machine_args(p)
    p.add_argument("--reports", type=int, default=1)
    p.add_argument("--enforce-memory", action="store_true")
    p.add_argument("--timing-out", default=None)
    p.add_argument(
        "--overlap",
        choices=list(OVERLAP_MODES),
        default="off",
        help="step schedule: blocking ('off', default) or pipelined "
        "nonblocking collectives ('str', 'coll', 'full') — bit-identical "
        "physics, overlapped communication cost",
    )
    p.add_argument(
        "--faults",
        default=None,
        help="JSON fault-plan file; runs under the resilient driver "
        "(shrink-and-recover) and prints the recovery-cost report",
    )
    p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=1,
        help="ensemble steps between checkpoints under --faults (default 1)",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="write member checkpoints as .npz under this directory "
        "(default: in-memory)",
    )
    p.set_defaults(func=cmd_run_xgyro)

    p = sub.add_parser(
        "study", help="run a full on-disk ensemble study with outputs"
    )
    p.add_argument("directory", help="study dir containing input.xgyro")
    _add_machine_args(p)
    p.add_argument("--reports", type=int, default=1)
    p.add_argument("--enforce-memory", action="store_true")
    p.add_argument("--no-checkpoints", action="store_true")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser(
        "plan",
        help="memory/node capacity planning, and the decomposition/"
        "placement autotuner (--autotune)",
    )
    p.add_argument("directory", nargs="?", default=None)
    _add_machine_args(p)
    p.add_argument("--members", type=int, default=8)
    p.add_argument(
        "--autotune",
        action="store_true",
        help="search (k, nodes, collective algorithms, nc split) against "
        "the cost model and print the tuned plan",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="annealer seed; the emitted plan JSON is byte-identical "
        "for the same seed (default 0)",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="really run the tuned and default choices and report the "
        "predicted-vs-actual error and the real speedup",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="PLAN.json",
        help="write the byte-stable plan artifact (repro-plan-v1) here",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="tiny built-in autotune scenario (CI rot check; implies "
        "--autotune, directory optional)",
    )
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("linear", help="linear growth-rate spectrum")
    p.add_argument("directory")
    p.add_argument("--modes", default=None, help="comma-separated mode list")
    p.add_argument("--method", choices=["arnoldi", "power"], default="arnoldi")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_linear)

    p = sub.add_parser(
        "campaign", help="serve a request stream as signature-batched jobs"
    )
    p.add_argument("requests", help='request-queue JSON ({"requests": [...]})')
    _add_machine_args(p)
    p.add_argument(
        "--steps",
        type=int,
        default=None,
        help="override steps per job (default: each job's steps_per_report)",
    )
    p.add_argument(
        "--fifo",
        action="store_true",
        help="unbatched baseline: one request per job, no cmat sharing",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the cross-job cmat cache"
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="cap members per candidate batch (default: uncapped)",
    )
    p.add_argument(
        "--plan",
        default=None,
        metavar="PLAN.json",
        help="autotuner plan artifact (repro plan --autotune --json); "
        "matching batches are shaped and placed by the plan",
    )
    p.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="JOB_INDEX:PLAN.json",
        help="inject a fault plan into the job with that index (repeatable)",
    )
    p.add_argument("--checkpoint-interval", type=int, default=1)
    p.add_argument(
        "--flaky-node",
        action="append",
        metavar="NODE:PLAN.json",
        help="fault plan injected into every job placed on the physical "
        "node (repeatable)",
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="retry-policy dispatch cap per request; 0 = unbounded "
        "legacy requeue (default 3)",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=30.0,
        help="base retry backoff in simulated seconds (default 30)",
    )
    p.add_argument(
        "--quarantine-after",
        type=int,
        default=2,
        help="incidents before a node is quarantined; 0 = never "
        "(default 2)",
    )
    p.add_argument("--enforce-memory", action="store_true")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="online service: arriving traffic, moving-window batching, "
        "elastic node pool",
    )
    _add_machine_args(p)
    p.add_argument(
        "--workload",
        choices=["small", "linear", "nl03c"],
        default="small",
        help="input pool arrivals draw from (default: small)",
    )
    p.add_argument(
        "--traffic",
        choices=["poisson", "bursty", "diurnal"],
        default="poisson",
        help="arrival process (default: poisson)",
    )
    p.add_argument(
        "--rate",
        type=float,
        default=0.05,
        help="arrival rate per simulated second (poisson; calm rate for "
        "bursty; base rate for diurnal)",
    )
    p.add_argument("--burst-rate", type=float, default=None,
                   help="bursty: burst-phase arrival rate")
    p.add_argument("--mean-calm", type=float, default=None,
                   help="bursty: mean calm-phase dwell (s)")
    p.add_argument("--mean-burst", type=float, default=None,
                   help="bursty: mean burst-phase dwell (s)")
    p.add_argument("--peak-rate", type=float, default=None,
                   help="diurnal: peak arrival rate")
    p.add_argument("--period", type=float, default=None,
                   help="diurnal: day length (s)")
    p.add_argument("--horizon", type=float, default=1200.0,
                   help="arrival horizon in simulated seconds")
    p.add_argument("--seed", type=int, default=0, help="traffic seed")
    p.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME:WEIGHT:SLO_S",
        help="add a tenant (repeatable; default: one 'default' tenant)",
    )
    p.add_argument("--max-hold", type=float, default=30.0,
                   help="window: longest any request is held (s)")
    p.add_argument("--min-batch", type=int, default=4,
                   help="window: group size that flushes immediately")
    p.add_argument("--max-batch", type=int, default=None,
                   help="window: cap members per batch")
    p.add_argument("--max-pending", type=int, default=None,
                   help="admission bound; arrivals beyond it are shed")
    p.add_argument("--min-nodes", type=int, default=1,
                   help="pool floor (provisioned at t=0)")
    p.add_argument("--max-nodes", type=int, default=None,
                   help="pool ceiling (default: the whole machine)")
    p.add_argument("--provision-delay", type=float, default=0.0,
                   help="grow latency in simulated seconds")
    p.add_argument("--idle-reclaim", type=float, default=float("inf"),
                   help="idle seconds before a node above the floor is "
                   "drained and reclaimed")
    p.add_argument(
        "--fifo",
        action="store_true",
        help="baseline: flush-on-arrival, one request per job, no sharing",
    )
    p.add_argument("--no-cache", action="store_true",
                   help="disable the cross-job cmat cache")
    p.add_argument("--steps", type=int, default=None,
                   help="override steps per job")
    p.add_argument("--smoke", action="store_true",
                   help="fixed fast configuration for CI")
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "check-trace",
        help="lint / structurally verify / replay recorded collective traces",
    )
    p.add_argument(
        "traces",
        nargs="*",
        help="trace JSON files (from export_trace_json); may be empty "
        "when using --figure1/--figure3",
    )
    p.add_argument(
        "--figure1",
        action="store_true",
        help="verify the CGYRO Figure-1 structure (on the given traces, "
        "or on a built-in checker-installed demo when none are given)",
    )
    p.add_argument(
        "--figure3",
        action="store_true",
        help="verify the XGYRO Figure-3 structure (as for --figure1)",
    )
    p.add_argument(
        "--no-replay",
        action="store_true",
        help="skip the deterministic blocking-semantics replay",
    )
    p.add_argument(
        "--overlap",
        choices=list(OVERLAP_MODES),
        default="off",
        help="run the built-in figure demos under this step schedule "
        "(nonblocking pipelines checked like any other run)",
    )
    p.add_argument(
        "--save",
        default=None,
        metavar="DIR",
        help="also write the built-in demo traces as JSON under DIR",
    )
    p.set_defaults(func=cmd_check_trace)

    p = sub.add_parser(
        "oracle",
        help="differential physics oracle: shared-cmat ensemble vs "
        "independent CGYRO baselines",
    )
    p.add_argument("input", help="input.xgyro path")
    _add_machine_args(p)
    p.add_argument("--reports", type=int, default=1)
    p.add_argument(
        "--baseline",
        choices=["member", "full"],
        default="member",
        help="baseline rank count: 'member' (order-identical, exact) or "
        "'full' (whole machine, tolerance-bounded)",
    )
    p.add_argument("--rtol", type=float, default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--enforce-memory", action="store_true")
    p.add_argument(
        "--overlap",
        choices=list(OVERLAP_MODES),
        default="off",
        help="run the ensemble side under this overlap schedule (the "
        "baselines stay blocking; 'member' mode still demands bit-exact)",
    )
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_oracle)

    def _add_traced_run_args(p):
        p.add_argument(
            "input",
            nargs="?",
            default=None,
            help="optional input.xgyro path (default: built-in k=4 demo)",
        )
        _add_machine_args(p)
        p.add_argument(
            "--nl03c",
            action="store_true",
            help="run the nl03c k=4 headline configuration on 32 "
            "frontier-like nodes instead of the small demo",
        )
        p.add_argument("--reports", type=int, default=1)
        p.add_argument("--enforce-memory", action="store_true")
        p.add_argument(
            "--overlap",
            choices=list(OVERLAP_MODES),
            default="off",
            help="step schedule for the traced run (default blocking)",
        )

    p = sub.add_parser(
        "trace",
        help="run a traced ensemble and print its critical-path report",
    )
    _add_traced_run_args(p)
    p.add_argument("--top-stalls", type=int, default=5)
    p.add_argument(
        "--spans-out", default=None, help="write the span tree as JSONL"
    )
    p.add_argument(
        "--chrome-out",
        default=None,
        help="write a Chrome/Perfetto trace (pid=member, tid=rank)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="run a traced ensemble and print its metrics registry "
        "(Prometheus text exposition)",
    )
    _add_traced_run_args(p)
    p.add_argument(
        "--json", default=None, help="also write the snapshot as JSON"
    )
    p.add_argument(
        "--load",
        default=None,
        metavar="M.json",
        help="skip the run and load a previously exported snapshot",
    )
    p.add_argument(
        "--quantile",
        action="append",
        default=None,
        metavar="NAME:q",
        help="print an interpolated histogram quantile (repeatable; "
        "series with the same name are merged across labels)",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "perf-gate",
        help="compare a fresh bench-record file against a committed "
        "baseline with tolerance bands",
        description="fails unless every metric is within ±5% of its "
        "baseline either way, none is missing and none is new",
    )
    p.add_argument("current", help="fresh bench records (pytest benchmarks --json)")
    p.add_argument("baseline", help="committed baseline record file")
    p.set_defaults(func=cmd_perf_gate)

    p = sub.add_parser(
        "chaos",
        help="run the chaos scenario harness: named control-plane "
        "fault schedules with service invariants (conservation, "
        "exactly-once WAL recovery, ledger balance) asserted",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="shrunk horizons and crash sweep for the CI lane",
    )
    p.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override every scenario's traffic seed",
    )
    p.add_argument(
        "--json", default=None, help="write per-scenario results as JSON"
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "monitor",
        help="run the chaos schedules under the live monitoring plane: "
        "streaming rollups, burn-rate/anomaly/threshold alerts, and "
        "automated incident diagnosis (zero model impact)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="shrunk horizons for the CI lane",
    )
    p.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    p.add_argument(
        "--window",
        type=float,
        default=60.0,
        metavar="S",
        help="rollup window length in simulated seconds (default 60)",
    )
    p.add_argument(
        "--rules",
        default=None,
        metavar="RULES.json",
        help="alert rulebook to load (default: the committed rulebook)",
    )
    p.add_argument(
        "--json",
        default=None,
        help="write per-scenario monitoring summaries as JSON",
    )
    p.add_argument(
        "--rollups-out",
        default=None,
        metavar="DIR",
        help="write per-scenario window rollups as JSONL into DIR",
    )
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("figure2", help="regenerate the paper's Figure 2")
    p.add_argument("--measure-steps", type=int, default=1)
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser(
        "verify", help="numerical verification: temporal convergence orders"
    )
    p.add_argument("directory", nargs="?", default=None,
                   help="optional case dir (defaults to a built-in input)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "reports", 1) < 1:
            raise ReproError(f"--reports must be >= 1, got {args.reports}")
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
