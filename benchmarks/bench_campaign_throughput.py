"""Campaign throughput: signature-batched scheduling vs FIFO.

The service question behind the ROADMAP's north star: given a mixed
stream of simulation requests (two cmat-signature families, arrivals
interleaved), how much does it buy to *discover* the shareable groups
and schedule them as shared-cmat XGYRO jobs, instead of serving each
request as its own CGYRO-style job in arrival order?

Three comparisons, all on the same request stream and machine:

- **makespan / latency** — FIFO jobs cannot share the tensor, so each
  needs enough ranks for a private cmat and the stream serialises into
  many waves; batched jobs fit k members where FIFO fits a few jobs.
- **per-process cmat memory** — a shared job spreads *one* tensor over
  the whole job's coll ranks (k x P1 owners), so its per-rank shard is
  a fraction of the private-cmat shard a FIFO job of the same problem
  must hold.
- **cross-job cache** — re-running the stream with a warm
  :class:`~repro.campaign.cache.CmatCache` skips every assembly and
  shows up as nonzero ``seconds_saved`` and a shorter makespan.

Default scale is the paper's nl03c scenario (two 7-member families on
a 32-node Frontier-like machine, ~3 min of wall time); ``--smoke``
shrinks it to the small-test grid on a 4-node cluster for CI.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_throughput.py -s
    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_throughput.py -s --smoke
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignPacker,
    CampaignRunner,
    CmatCache,
    RequestQueue,
    SignatureBatcher,
    SimRequest,
)
from repro.cgyro.presets import (
    NL03C_SCALED_MEM_PER_RANK,
    nl03c_scaled,
    small_test,
)
from repro.machine import frontier_like, generic_cluster
from repro.machine.model import KiB


@pytest.fixture(scope="module")
def scenario(smoke):
    """(machine, requests, steps): a mixed two-family request stream.

    The memory budget is chosen in the paper's regime — tight enough
    that a private-cmat job must spread over many ranks — at both
    scales (1.5x the scaled-nl03c budget; 96 KiB/rank for the
    small-test grid).
    """
    if smoke:
        machine = replace(
            generic_cluster(n_nodes=4, ranks_per_node=4),
            mem_per_rank_bytes=float(96 * KiB),
        )
        base = small_test()
        members, steps, gradients = 4, 2, (4.0, 0.1)
    else:
        machine = frontier_like(
            n_nodes=32,
            mem_per_rank_bytes=1.5 * NL03C_SCALED_MEM_PER_RANK,
        )
        base = nl03c_scaled(steps_per_report=1)
        members, steps, gradients = 7, 1, (3.0, 0.1)
    requests = []
    for m in range(members):
        grad = gradients[0] + gradients[1] * m
        for fam, nu in ((0, base.nu), (1, base.nu * 2.0)):
            requests.append(
                SimRequest(
                    request_id=f"f{fam}m{m}",
                    input=base.with_updates(
                        nu=nu, dlntdr=(grad, grad), name=f"f{fam}.m{m}"
                    ),
                    # all present at t=0: queue latency measures purely
                    # how long scheduling makes a request wait
                    arrival_s=0.0,
                )
            )
    return machine, requests, steps


@pytest.fixture(scope="module")
def reports(scenario):
    """The three campaign runs every test below reads.

    ``cold`` doubles as the batched-scheduling result (its cache starts
    empty, so no job hits); ``warm`` replays the identical stream with
    the cache ``cold`` filled; ``fifo`` serves one request per job with
    no sharing and no cache.
    """
    machine, requests, steps = scenario
    cache = CmatCache()
    cold = CampaignRunner(machine, cache=cache).run(
        RequestQueue(requests), steps=steps
    )
    warm = CampaignRunner(machine, cache=cache).run(
        RequestQueue(requests), steps=steps
    )
    fifo = CampaignRunner(
        machine,
        batcher=SignatureBatcher(max_batch=1),
        packer=CampaignPacker(machine, prefer_larger_k=False),
        use_cache=False,
    ).run(RequestQueue(requests), steps=steps)
    return {"cold": cold, "warm": warm, "fifo": fifo}


def test_batched_beats_fifo_makespan_and_throughput(reports, bench_json):
    """Sharing turns many serialised waves into a few wide jobs."""
    cold, fifo = reports["cold"], reports["fifo"]
    assert cold.n_completed == fifo.n_completed
    speedup = fifo.makespan_s / cold.makespan_s
    bench_json.record(
        "campaign_throughput",
        batched_makespan_s=cold.makespan_s,
        fifo_makespan_s=fifo.makespan_s,
        fifo_speedup=speedup,
        batched_throughput_member_steps_per_s=(
            cold.throughput_member_steps_per_s
        ),
    )
    print(
        f"\nmakespan: batched {cold.makespan_s:.3f} s "
        f"({cold.n_jobs} jobs, mean k {cold.mean_k:.1f}) vs "
        f"FIFO {fifo.makespan_s:.3f} s ({fifo.n_jobs} jobs) "
        f"-> {speedup:.2f}x"
    )
    print(
        f"throughput: batched "
        f"{cold.throughput_member_steps_per_s:.3f} vs FIFO "
        f"{fifo.throughput_member_steps_per_s:.3f} member-steps/s"
    )
    assert cold.makespan_s < fifo.makespan_s
    assert (
        cold.throughput_member_steps_per_s
        > fifo.throughput_member_steps_per_s
    )
    # sharing actually happened: fewer, larger jobs
    assert cold.n_jobs < fifo.n_jobs
    assert cold.mean_k > 1.0


def test_batched_beats_fifo_queue_latency(reports):
    """Fewer waves -> requests start sooner across the distribution."""
    cold_p = reports["cold"].latency_percentiles
    fifo_p = reports["fifo"].latency_percentiles
    print(
        "\nqueue latency (s):"
        + "".join(
            f"  {k} {cold_p[k]:.3f} vs {fifo_p[k]:.3f}"
            for k in ("p50", "p90", "p99")
        )
    )
    assert cold_p["p90"] < fifo_p["p90"]
    assert cold_p["p99"] < fifo_p["p99"]


def test_batched_needs_less_cmat_memory_per_process(reports):
    """One shared tensor over k x P1 owners beats a private tensor
    crammed into one job's ranks."""
    cold, fifo = reports["cold"], reports["fifo"]
    print(
        f"\npeak cmat per process: batched "
        f"{cold.peak_cmat_bytes_per_rank} B vs FIFO "
        f"{fifo.peak_cmat_bytes_per_rank} B "
        f"({fifo.peak_cmat_bytes_per_rank / cold.peak_cmat_bytes_per_rank:.1f}x)"
    )
    assert cold.peak_cmat_bytes_per_rank < fifo.peak_cmat_bytes_per_rank


def test_warm_cache_saves_assembly_time(reports, bench_json):
    """The second identical stream hits the cache on every job."""
    cold, warm = reports["cold"], reports["warm"]
    stats = warm.cache
    bench_json.record(
        "campaign_throughput",
        warm_makespan_s=warm.makespan_s,
        cache_seconds_saved=stats["seconds_saved"],
    )
    print(
        f"\nwarm cache: {int(stats['hits'])} hit(s), "
        f"{stats['seconds_saved']:.4f} s of assembly saved; "
        f"makespan {cold.makespan_s:.4f} -> {warm.makespan_s:.4f} s"
    )
    assert all(j.cache_hit for j in warm.jobs)
    assert stats["seconds_saved"] > 0.0
    assert warm.makespan_s < cold.makespan_s
    # cold run built each family's tensor exactly once
    assert int(stats["misses"]) == cold.n_jobs
    assert all(not j.cache_hit for j in cold.jobs)


def test_packing_invariants(scenario, reports):
    """Co-scheduled jobs occupy disjoint node sets within the budget."""
    machine, _, _ = scenario
    for report in reports.values():
        assert report.peak_cmat_bytes_per_rank <= machine.mem_per_rank_bytes
        by_wave = {}
        for j in report.jobs:
            assert all(0 <= n < machine.n_nodes for n in j.nodes)
            assert len(j.nodes) == j.n_nodes
            by_wave.setdefault((j.round, j.wave), []).append(j)
        for jobs in by_wave.values():
            nodes = [n for j in jobs for n in j.nodes]
            assert len(nodes) == len(set(nodes)), "wave nodes overlap"
