"""Tests for the campaign scheduler subsystem."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.errors import CampaignError, LedgerError
from repro.campaign.batcher import CandidateBatch, SignatureBatcher
from repro.campaign.cache import CmatCache
from repro.campaign.packer import CampaignPacker
from repro.campaign.request import RequestQueue, SimRequest
from repro.campaign.runner import CampaignRunner
from repro.cgyro.presets import small_test
from repro.collision.cmat import cmat_total_bytes
from repro.machine.presets import generic_cluster
from repro.machine.model import KiB
from repro.perf.report import render_campaign_report
from repro.resilience.faults import FaultPlan, FaultSpec


@pytest.fixture
def base():
    return small_test()


@pytest.fixture
def machine():
    return generic_cluster(n_nodes=4, ranks_per_node=4)


@pytest.fixture
def tight_machine(machine):
    """Budget in the paper's regime: a private cmat does not fit on
    one node's ranks, forcing jobs to spread (see the benchmark)."""
    return replace(machine, mem_per_rank_bytes=float(96 * KiB))


def _requests(base, n, *, families=1, cadence=None, prefix="r"):
    out = []
    for i in range(n):
        fam = i % families
        inp = base.with_updates(
            nu=base.nu * (1 + fam),
            name=f"{prefix}{i}",
            **({"steps_per_report": cadence} if cadence else {}),
        )
        out.append(
            SimRequest(request_id=f"{prefix}{i}", input=inp, arrival_s=float(i))
        )
    return out


# ---------------------------------------------------------------------------
# requests and queue
# ---------------------------------------------------------------------------
class TestSimRequest:
    def test_request_round_trip_via_json(self, base):
        req = SimRequest(
            request_id="a", input=base, priority=3, arrival_s=1.5, attempt=1
        )
        clone = SimRequest.from_dict(json.loads(json.dumps(req.to_dict())))
        assert clone == req

    def test_requeued_bumps_attempt_only(self, base):
        req = SimRequest(request_id="a", input=base, priority=2, arrival_s=7.0)
        retry = req.requeued()
        assert retry.attempt == 1
        assert (retry.priority, retry.arrival_s) == (2, 7.0)
        assert retry.input is req.input

    def test_missing_fields_raise(self):
        with pytest.raises(CampaignError, match="missing"):
            SimRequest.from_dict({"request_id": "a"})


class TestRequestQueue:
    def test_priority_then_arrival_then_submission(self, base):
        q = RequestQueue()
        q.submit(SimRequest(request_id="late", input=base, arrival_s=5.0))
        q.submit(SimRequest(request_id="early", input=base, arrival_s=1.0))
        q.submit(
            SimRequest(request_id="vip", input=base, priority=9, arrival_s=9.0)
        )
        q.submit(SimRequest(request_id="tie", input=base, arrival_s=1.0))
        assert [q.pop().request_id for _ in range(4)] == [
            "vip", "early", "tie", "late",
        ]

    def test_duplicate_id_rejected_until_popped(self, base):
        q = RequestQueue(_requests(base, 1))
        with pytest.raises(CampaignError, match="already queued"):
            q.submit(SimRequest(request_id="r0", input=base))
        popped = q.pop()
        q.submit(popped.requeued())  # free again after pop
        assert [r.request_id for r in q.pending()] == ["r0"]

    def test_pop_empty_raises(self):
        q = RequestQueue()
        with pytest.raises(CampaignError):
            q.pop()
        assert not q and len(q) == 0

    def test_drain_and_pending_agree(self, base):
        reqs = _requests(base, 5)
        q = RequestQueue(reqs)
        snapshot = [r.request_id for r in q.pending()]
        assert len(q) == 5
        drained = [r.request_id for r in q.drain()]
        assert drained == snapshot
        assert len(q) == 0

    def test_json_round_trip_through_a_file(self, base, tmp_path):
        q = RequestQueue(_requests(base, 3, families=2))
        path = tmp_path / "reqs.json"
        q.to_json(path)
        for source in (path, str(path)):
            clone = RequestQueue.from_json(source)
            assert [r.request_id for r in clone.pending()] == [
                r.request_id for r in q.pending()
            ]

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text("{nope")
        with pytest.raises(CampaignError, match="reqs.json: not valid JSON"):
            RequestQueue.from_json(path)
        path.write_text('{"jobs": []}')
        with pytest.raises(CampaignError, match="requests"):
            RequestQueue.from_json(path)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------
class TestCmatCache:
    def test_content_hash_tracks_signature_equality(self, base):
        same = base.with_updates(dlntdr=(9.0, 9.0), name="other")
        diff = base.with_updates(nu=base.nu * 2)
        h = base.cmat_signature().content_hash()
        assert same.cmat_signature().content_hash() == h
        assert diff.cmat_signature().content_hash() != h
        assert len(h) == 64  # sha256 hex

    def test_miss_then_hit_accounting(self, base):
        cache = CmatCache()
        sig = base.cmat_signature()
        assert cache.lookup(sig) is None
        cache.insert(sig, nbytes=100, build_s=2.5)
        entry = cache.lookup(sig)
        assert entry is not None and entry.hits == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert cache.seconds_saved == 2.5
        assert list(cache._entries) == [sig.content_hash()]

    def test_invalid_arguments_raise(self, base):
        cache = CmatCache()
        with pytest.raises(CampaignError):
            cache.insert(base.cmat_signature(), nbytes=-1, build_s=0.0)
        with pytest.raises(CampaignError):
            cache.insert(base.cmat_signature(), nbytes=1, build_s=-0.1)

    def test_stats_snapshot(self, base):
        cache = CmatCache()
        cache.insert(base.cmat_signature(), nbytes=64, build_s=1.0)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["in_use_bytes"] == 64


# ---------------------------------------------------------------------------
# packer
# ---------------------------------------------------------------------------
class TestCampaignPacker:
    def test_shape_respects_memory_budget(self, base, tight_machine):
        packer = CampaignPacker(tight_machine)
        shape = packer.shape_for(base, 1)
        assert shape is not None
        assert (
            shape.per_rank_cmat_bytes + shape.per_rank_state_bytes
            <= tight_machine.mem_per_rank_bytes
        )
        # sharing k members spreads one tensor over more owners:
        # strictly smaller per-rank shard than the k=1 job
        k8 = packer.shape_for(base, 8)
        assert k8 is not None
        assert k8.per_rank_cmat_bytes < shape.per_rank_cmat_bytes

    def test_infeasible_k_returns_none(self, base, machine):
        # 4x4 machine has 16 slots; k=5 never divides any rank count
        assert CampaignPacker(machine).shape_for(base, 5) is None

    def test_only_decomposition_errors_mean_no_fit(
        self, base, machine, monkeypatch
    ):
        """A bug inside ``Decomposition.choose`` must surface, not be
        reported as "does not fit"."""
        from repro.grid.decomp import Decomposition

        def broken(cls, dims, n_proc):
            raise ZeroDivisionError("programming error")

        monkeypatch.setattr(Decomposition, "choose", classmethod(broken))
        with pytest.raises(ZeroDivisionError):
            CampaignPacker(machine).shape_for(base, 1)

    def test_split_prefers_largest_feasible_k(self, base, tight_machine):
        packer = CampaignPacker(tight_machine)
        batch = CandidateBatch(
            base.cmat_signature(),
            tuple(_requests(base, 8)),
        )
        jobs = packer.split(batch)
        ks = [shape.k for _, shape in jobs]
        assert sum(ks) == 8
        assert ks[0] == max(ks)  # greedy: biggest group first

    def test_split_k1_when_sharing_disabled(self, base, machine):
        packer = CampaignPacker(machine, prefer_larger_k=False)
        batch = CandidateBatch(
            base.cmat_signature(), tuple(_requests(base, 3))
        )
        assert [s.k for _, s in packer.split(batch)] == [1, 1, 1]

    def test_unfittable_request_raises(self, base, machine):
        doomed = replace(machine, mem_per_rank_bytes=1.0 * KiB)
        packer = CampaignPacker(doomed)
        batch = CandidateBatch(
            base.cmat_signature(), tuple(_requests(base, 1))
        )
        with pytest.raises(CampaignError, match="does not fit"):
            packer.split(batch)

    def test_pack_waves_use_disjoint_contiguous_nodes(self, base, machine):
        packer = CampaignPacker(machine, prefer_larger_k=False)
        batches = [
            CandidateBatch(
                base.cmat_signature(), tuple(_requests(base, 6))
            )
        ]
        waves = packer.pack(batches)
        assert sum(len(w) for w in waves) == 6
        for wave in waves:
            used = [n for job in wave for n in job.nodes]
            assert len(used) == len(set(used))
            assert all(0 <= n < machine.n_nodes for n in used)
        ids = [j.job_id for w in waves for j in w]
        assert len(set(ids)) == 6

    def test_pack_job_id_offset(self, base, machine):
        packer = CampaignPacker(machine)
        batches = [
            CandidateBatch(base.cmat_signature(), tuple(_requests(base, 2)))
        ]
        waves = packer.pack(batches, job_id_offset=7)
        assert waves[0][0].job_id == "job007"


# ---------------------------------------------------------------------------
# runner end to end
# ---------------------------------------------------------------------------
class TestCampaignRunner:
    def test_serves_mixed_stream_to_empty(self, base, machine):
        queue = RequestQueue(_requests(base, 6, families=2))
        report = CampaignRunner(machine).run(queue, steps=2)
        assert len(queue) == 0
        assert report.n_completed == 6
        assert report.total_member_steps == 12
        assert report.makespan_s > 0
        assert 0 < report.node_utilisation <= 1.0
        assert {r.request_id for r in report.requests} == {
            f"r{i}" for i in range(6)
        }
        # two signature families -> at least two jobs, never mixed
        keys = {j.signature_key for j in report.jobs}
        assert len(keys) == 2

    def test_jobs_share_within_signature_only(self, base, machine):
        queue = RequestQueue(_requests(base, 6, families=2))
        report = CampaignRunner(machine).run(queue, steps=1)
        by_job = {}
        for rec in report.requests:
            by_job.setdefault(rec.job_id, []).append(rec.request_id)
        for job in report.jobs:
            members = by_job[job.job_id]
            fams = {int(rid[1:]) % 2 for rid in members}
            assert len(fams) == 1

    def test_cache_hits_across_rounds_save_time(self, base, machine):
        cache = CmatCache()
        r1 = CampaignRunner(machine, cache=cache).run(
            RequestQueue(_requests(base, 4)), steps=1
        )
        r2 = CampaignRunner(machine, cache=cache).run(
            RequestQueue(_requests(base, 4)), steps=1
        )
        assert all(not j.cache_hit for j in r1.jobs)
        assert all(j.cache_hit for j in r2.jobs)
        assert r2.cache["seconds_saved"] > 0
        assert r2.makespan_s < r1.makespan_s
        # entries are content-addressed records of the full tensor
        dims = base.grid_dims()
        assert r2.cache["in_use_bytes"] == cmat_total_bytes(dims)

    def test_no_cache_mode_never_hits(self, base, machine):
        report = CampaignRunner(machine, use_cache=False).run(
            RequestQueue(_requests(base, 3)), steps=1
        )
        assert report.cache == {}
        assert all(not j.cache_hit for j in report.jobs)

    def test_fault_requeues_lost_members_to_completion(self, base, machine):
        # the job world only spans the job's own nodes, so target a
        # rank: in the k=4 one-node job, rank 3 is member r3
        plan = FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=1, rank=3),),
            detection_timeout_s=1.0,
        )
        queue = RequestQueue(_requests(base, 4))
        report = CampaignRunner(machine, fault_plans={0: plan}).run(
            queue, steps=3
        )
        assert report.n_completed == 4
        assert report.n_requeued >= 1
        faulted = report.jobs[0]
        assert faulted.n_recoveries == 1
        retried = {
            r.request_id: r.attempts for r in report.requests
        }
        for rid in faulted.lost_request_ids:
            assert retried[rid] == 2
        # retry jobs run in a later round at a later campaign time
        retry_jobs = [j for j in report.jobs if j.round > 0]
        assert retry_jobs and all(
            j.start_s >= faulted.elapsed_s for j in retry_jobs
        )

    def test_unservable_retry_storm_raises(self, base, machine):
        queue = RequestQueue(_requests(base, 2))
        runner = CampaignRunner(machine)
        with pytest.raises(CampaignError, match="rounds"):
            runner.run(queue, steps=1, max_rounds=0)

    def test_enforce_memory_agrees_with_packer(self, base, tight_machine):
        # the packer's would_fit planning must survive the world's own
        # ledger enforcement on every dispatched job
        queue = RequestQueue(_requests(base, 4, families=2))
        report = CampaignRunner(tight_machine, enforce_memory=True).run(
            queue, steps=1
        )
        assert report.n_completed == 4

    def test_priority_served_first(self, base, machine):
        reqs = _requests(base, 4)
        vip = SimRequest(
            request_id="vip",
            input=base.with_updates(nu=base.nu * 3, name="vip"),
            priority=5,
        )
        report = CampaignRunner(machine).run(
            RequestQueue(reqs + [vip]), steps=1
        )
        vip_rec = next(r for r in report.requests if r.request_id == "vip")
        assert vip_rec.queue_latency_s == 0.0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
class TestCampaignReport:
    @pytest.fixture
    def report(self, base, machine):
        queue = RequestQueue(_requests(base, 6, families=2))
        return CampaignRunner(machine).run(queue, steps=2)

    def test_latency_percentiles_ordered(self, report):
        pct = report.latency_percentiles()
        assert pct["p50"] <= pct["p90"] <= pct["p99"]

    def test_percentiles_of_empty_report_raise(self):
        from repro.campaign.report import CampaignReport

        empty = CampaignReport(
            machine_name="m", machine_n_nodes=1, makespan_s=0.0
        )
        with pytest.raises(CampaignError):
            empty.latency_percentiles()
        assert empty.throughput_member_steps_per_s == 0.0
        assert empty.node_utilisation == 0.0

    def test_to_dict_is_json_safe(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_completed"] == 6
        assert len(payload["jobs"]) == report.n_jobs
        assert payload["cache"]["misses"] == report.cache["misses"]

    def test_render_campaign_report(self, report):
        text = render_campaign_report(report)
        assert "campaign on" in text
        assert "throughput" in text
        assert "cmat cache" in text
        for job in report.jobs:
            assert job.job_id in text


# ---------------------------------------------------------------------------
# memory ledger probe (satellite)
# ---------------------------------------------------------------------------
class TestWouldFitProbe:
    def test_would_fit_matches_alloc(self):
        from repro.machine.memory import MemoryLedger

        led = MemoryLedger(100)
        assert led.would_fit("a", 100)
        assert not led.would_fit("a", 101)
        led.alloc("a", 60)
        assert led.would_fit("b", 40)
        assert not led.would_fit("b", 41)
        with pytest.raises(LedgerError):
            led.would_fit("b", -1)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCampaignCli:
    @pytest.fixture
    def requests_file(self, base, tmp_path):
        path = tmp_path / "reqs.json"
        RequestQueue(_requests(base, 4, families=2)).to_json(path)
        return path

    def test_batched_run(self, requests_file, capsys):
        from repro.cli import main

        assert main(
            ["campaign", str(requests_file), "--nodes", "4", "--steps", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "signature-batched" in out
        assert "campaign on" in out
        assert "cmat cache" in out

    def test_fifo_no_cache_run(self, requests_file, capsys):
        from repro.cli import main

        assert main(
            [
                "campaign", str(requests_file),
                "--nodes", "4", "--steps", "1", "--fifo", "--no-cache",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "FIFO" in out
        assert "cache off" in out

    def test_json_report_written(self, requests_file, tmp_path, capsys):
        from repro.cli import main

        out_json = tmp_path / "report.json"
        assert main(
            [
                "campaign", str(requests_file),
                "--nodes", "4", "--steps", "1", "--json", str(out_json),
            ]
        ) == 0
        payload = json.loads(out_json.read_text())
        assert payload["n_completed"] == 4

    def test_faults_flag(self, requests_file, tmp_path, capsys):
        from repro.cli import main
        from repro.resilience.faults import FaultPlan, FaultSpec

        plan_file = tmp_path / "plan.json"
        FaultPlan(
            specs=(FaultSpec("rank_crash", at_step=1, rank=1),),
            detection_timeout_s=1.0,
        ).to_file(plan_file)
        assert main(
            [
                "campaign", str(requests_file),
                "--nodes", "4", "--steps", "3",
                "--faults", f"0:{plan_file}",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "requeued after faults" in out

    def test_malformed_faults_flag_fails_cleanly(self, requests_file, capsys):
        from repro.cli import main

        assert main(
            ["campaign", str(requests_file), "--faults", "nope"]
        ) == 2
        assert "JOB_INDEX" in capsys.readouterr().err

    def test_missing_requests_file_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["campaign", str(tmp_path / "ghost.json")]) == 2
        assert "error:" in capsys.readouterr().err

# ---------------------------------------------------------------------------
# service-facing extensions: tenant/deadline fields, clock offsets
# ---------------------------------------------------------------------------
class TestServiceFacingExtensions:
    def test_tenant_and_deadline_round_trip(self, base):
        req = SimRequest(
            request_id="a", input=base, tenant="alice", deadline_s=120.0
        )
        clone = SimRequest.from_dict(json.loads(json.dumps(req.to_dict())))
        assert clone == req
        assert (clone.tenant, clone.deadline_s) == ("alice", 120.0)

    def test_old_json_without_service_fields_loads(self, base):
        # request files written before tenant/deadline_s existed must
        # keep loading, with both fields defaulting to None
        data = SimRequest(request_id="a", input=base).to_dict()
        del data["tenant"]
        del data["deadline_s"]
        req = SimRequest.from_dict(data)
        assert req.tenant is None and req.deadline_s is None

    def test_requeued_preserves_tenant_and_deadline(self, base):
        req = SimRequest(
            request_id="a", input=base, tenant="t", deadline_s=9.0
        )
        retry = req.requeued()
        assert retry.attempt == 1
        assert (retry.tenant, retry.deadline_s) == ("t", 9.0)

    def test_zero_steps_raise_before_anything_runs(self, base, machine):
        """A job of zero steps serves nothing: both entry points refuse
        it before the queue drains or the cache is probed."""
        runner = CampaignRunner(machine)
        queue = RequestQueue(_requests(base, 2))
        with pytest.raises(CampaignError, match="steps must be >= 1, got 0"):
            runner.run(queue, steps=0)
        assert len(queue) == 2
        job = runner.packer.pack(runner.batcher.batch(queue.drain()))[0][0]
        with pytest.raises(CampaignError, match="steps must be >= 1, got -1"):
            runner.dispatch(job, steps=-1)
        assert runner.cache.misses == runner.cache.hits == 0
