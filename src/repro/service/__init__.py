"""The online campaign service: traffic, windowed batching, elastic
pool, fair-share scheduling, and the service-level report.

The batch :mod:`repro.campaign` answered "how fast can one machine
drain a fixed queue of ensemble requests".  This package answers the
production question behind the ROADMAP's north star — requests
*arrive*, continuously, from many tenants, and the service must decide
on-line how long to hold each one for signature share-mates, how many
nodes to keep provisioned, and who gets the next free node — all on
one deterministic simulated clock so every run is replayable.

Entry point: :class:`OnlineService` (``repro serve`` on the CLI).
"""

from repro.service.journal import ServiceJournal, recover_service
from repro.service.loop import OnlineService
from repro.service.traffic import BurstyTraffic, PoissonTraffic, TenantSpec, replay
from repro.service.window import WindowPolicy
