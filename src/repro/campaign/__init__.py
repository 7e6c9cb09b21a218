"""Campaign scheduling: a multi-job service over shared-cmat ensembles.

The paper shares one collisional constant tensor *within* a pre-formed
XGYRO ensemble.  This package inverts the workflow for the service
setting the ROADMAP targets — a heavy stream of simulation requests
from many users — by *discovering* the sharing opportunities in an
arbitrary request stream and packing them onto the machine:

- :mod:`repro.campaign.request` — :class:`SimRequest` (one user ask,
  JSON round-trippable) and the priority/arrival-ordered
  :class:`RequestQueue`;
- :mod:`repro.campaign.batcher` — :class:`SignatureBatcher`, grouping
  pending requests by :class:`~repro.collision.signature.CmatSignature`
  into candidate XGYRO ensembles (never mixing signatures);
- :mod:`repro.campaign.packer` — :class:`CampaignPacker`, choosing an
  ensemble size k and node count per candidate via
  :class:`~repro.machine.memory.MemoryLedger` capacity probes,
  splitting oversized groups and co-scheduling small jobs onto
  disjoint node sets of the same wave;
- :mod:`repro.campaign.cache` — :class:`CmatCache`, a
  content-addressed cache of assembled tensors keyed by signature
  hash, letting consecutive jobs skip cmat re-assembly entirely;
- :mod:`repro.campaign.runner` — :class:`CampaignRunner`, dispatching
  packed jobs through :class:`~repro.xgyro.driver.XgyroEnsemble` /
  :class:`~repro.xgyro.study.XgyroStudy`, requeueing members lost to
  injected faults via :mod:`repro.resilience` under a bounded
  :class:`~repro.resilience.health.RetryPolicy` and steering placement
  away from nodes the
  :class:`~repro.resilience.health.NodeHealthTracker` quarantines;
- :mod:`repro.campaign.report` — :class:`CampaignReport`: throughput
  in member-steps/s, queue-latency percentiles, cache hit rate, node
  utilisation (rendered by
  :func:`~repro.perf.report.render_campaign_report`).
"""

from repro.campaign.batcher import CandidateBatch, SignatureBatcher
from repro.campaign.cache import CacheEntry, CmatCache
from repro.campaign.packer import CampaignPacker, JobShape, PackedJob
from repro.campaign.report import (
    AbandonedRecord,
    CampaignReport,
    JobRecord,
    RequestRecord,
)
from repro.campaign.request import RequestQueue, SimRequest
from repro.campaign.runner import CampaignRunner

__all__ = [
    "AbandonedRecord",
    "CacheEntry",
    "CampaignPacker",
    "CampaignReport",
    "CampaignRunner",
    "CandidateBatch",
    "CmatCache",
    "JobRecord",
    "JobShape",
    "PackedJob",
    "RequestQueue",
    "RequestRecord",
    "SignatureBatcher",
    "SimRequest",
]
