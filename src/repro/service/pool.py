"""The elastic node pool: grow under load, drain-and-reclaim on idle.

The batch campaign owned the whole machine for its lifetime.  A
service that holds 32 Frontier-class nodes through every quiet hour
has terrible economics; one that cannot borrow nodes back under a
burst has terrible latency.  :class:`ElasticNodePool` models the
middle ground over the *same* :class:`~repro.machine.model.MachineModel`
the packer and ledgers use:

- nodes are ``offline`` until provisioned; provisioning takes
  ``provision_delay_s`` of simulated time (allocation + boot + image),
  after which the node is ``idle`` and placeable;
- dispatches ``busy`` specific node ids; completions return them to
  ``idle``;
- an ``idle`` node that nobody touches for ``idle_reclaim_s`` is
  *drained and reclaimed* — returned to ``offline`` — but never below
  ``min_nodes``, and a busy node is never reclaimed (the drain
  guarantee: reclaim waits for work to finish, it does not kill it);
- nodes the shared :class:`~repro.resilience.health.NodeHealthTracker`
  quarantines stop being allocatable even while provisioned.

Every transition is appended to a timeline, so reports can plot pool
size against offered load, and provisioned node-seconds (the cost
integral) are accumulated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.machine.model import MachineModel
from repro.records import Record

#: Node lifecycle states.
OFFLINE, PROVISIONING, IDLE, BUSY = "offline", "provisioning", "idle", "busy"


@dataclass(frozen=True)
class PoolSample(Record):
    """One pool-size timeline entry (written on every change)."""

    t_s: float
    provisioned: int  # idle + busy (online capacity)
    busy: int
    provisioning: int


class ElasticNodePool:
    """Node lifecycle manager over one machine.

    Parameters
    ----------
    machine:
        The machine whose node ids ``0..n_nodes-1`` the pool manages.
    min_nodes:
        Floor the pool never reclaims below; these are provisioned
        (idle) at construction, at time 0, with no delay.
    max_nodes:
        Ceiling on provisioned + provisioning nodes (default: the
        whole machine).
    provision_delay_s:
        Simulated seconds between a grow request and the node coming
        online.
    idle_reclaim_s:
        Idle time after which a node above the floor is reclaimed.
    health:
        Optional :class:`~repro.resilience.health.NodeHealthTracker`;
        quarantined nodes are excluded from :meth:`free_nodes` and
        skipped when growing.
    spread_domains:
        When the machine declares
        :class:`~repro.machine.topology.FaultDomains`, grow requests
        provision offline nodes round-robin across domains, so online
        capacity (and hence every placement drawn from it) straddles
        racks.  Without domains the pick is the historical
        lowest-id-first one.
    """

    def __init__(
        self,
        machine: MachineModel,
        *,
        min_nodes: int = 1,
        max_nodes: Optional[int] = None,
        provision_delay_s: float = 0.0,
        idle_reclaim_s: float = float("inf"),
        health: "object | None" = None,
        spread_domains: bool = True,
    ) -> None:
        max_nodes = machine.n_nodes if max_nodes is None else max_nodes
        if not 1 <= min_nodes <= max_nodes <= machine.n_nodes:
            raise ServiceError(
                f"need 1 <= min_nodes ({min_nodes}) <= max_nodes "
                f"({max_nodes}) <= machine nodes ({machine.n_nodes})"
            )
        if provision_delay_s < 0:
            raise ServiceError(
                f"provision_delay_s must be >= 0, got {provision_delay_s}"
            )
        if idle_reclaim_s <= 0:
            raise ServiceError(
                f"idle_reclaim_s must be > 0, got {idle_reclaim_s}"
            )
        self.machine = machine
        self.min_nodes = int(min_nodes)
        self.max_nodes = int(max_nodes)
        self.provision_delay_s = float(provision_delay_s)
        self.idle_reclaim_s = float(idle_reclaim_s)
        self.health = health
        self.spread_domains = spread_domains
        self._state: Dict[int, str] = {
            n: OFFLINE for n in range(machine.n_nodes)
        }
        #: node ids the most recent :meth:`request_grow` started
        self.last_grown: Tuple[int, ...] = ()
        self._ready_at: Dict[int, float] = {}  # provisioning -> online time
        self._idle_since: Dict[int, float] = {}
        self.timeline: List[PoolSample] = []
        self.node_seconds = 0.0  # provisioned-capacity cost integral
        self._last_t = 0.0
        for n in range(self.min_nodes):
            self._state[n] = IDLE
            self._idle_since[n] = 0.0
        self._sample(0.0)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _advance_cost(self, now: float) -> None:
        if now < self._last_t:
            raise ServiceError(
                f"pool clock moved backwards: {now} < {self._last_t}"
            )
        self.node_seconds += self.provisioned * (now - self._last_t)
        self._last_t = now

    def _sample(self, now: float) -> None:
        self.timeline.append(
            PoolSample(
                t_s=float(now),
                provisioned=self.provisioned,
                busy=self._count(BUSY),
                provisioning=self._count(PROVISIONING),
            )
        )

    def _count(self, state: str) -> int:
        return sum(1 for s in self._state.values() if s == state)

    @property
    def provisioned(self) -> int:
        """Online capacity: idle + busy nodes."""
        return self._count(IDLE) + self._count(BUSY)

    @property
    def busy(self) -> int:
        """Nodes currently running a job."""
        return self._count(BUSY)

    @property
    def committed(self) -> int:
        """Capacity already paid for or en route: provisioned plus
        provisioning."""
        return self.provisioned + self._count(PROVISIONING)

    def state_of(self, node: int) -> str:
        """The node's lifecycle state."""
        try:
            return self._state[node]
        except KeyError:
            raise ServiceError(f"node {node} is not in the pool") from None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_ready(self, now: float) -> List[int]:
        """Bring provisioning nodes whose delay elapsed online (idle)."""
        self._advance_cost(now)
        came_up = sorted(
            n for n, t in self._ready_at.items() if t <= now
        )
        for n in came_up:
            del self._ready_at[n]
            self._state[n] = IDLE
            self._idle_since[n] = now
        if came_up:
            self._sample(now)
        return came_up

    def next_ready(self) -> Optional[float]:
        """Earliest pending provisioning completion, or ``None``."""
        return min(self._ready_at.values()) if self._ready_at else None

    def ready_times(self) -> List[float]:
        """Distinct pending provisioning-completion times, sorted —
        a recovered service re-arms one wake-up per entry."""
        return sorted(set(self._ready_at.values()))

    def request_grow(
        self, n_nodes: int, now: float, *, extra_delay_s: float = 0.0
    ) -> Optional[float]:
        """Start provisioning up to ``n_nodes`` more nodes.

        Returns the time they come online, or ``None`` when the pool
        is already at ``max_nodes`` (nothing started).  Quarantined
        offline nodes are never provisioned.  ``extra_delay_s`` stalls
        this particular grow beyond the nominal delay (the
        ``provision_fail`` fault charges its stall here).
        """
        if n_nodes < 1:
            raise ServiceError(f"n_nodes must be >= 1, got {n_nodes}")
        if extra_delay_s < 0:
            raise ServiceError(
                f"extra_delay_s must be >= 0, got {extra_delay_s}"
            )
        self._advance_cost(now)
        headroom = self.max_nodes - self.committed
        take = min(n_nodes, headroom)
        if take <= 0:
            return None
        ready_at = now + self.provision_delay_s + extra_delay_s
        candidates = [
            n
            for n in sorted(self._state)
            if self._state[n] == OFFLINE
            and not (
                self.health is not None and self.health.is_quarantined(n)
            )
        ]
        domains = self.machine.fault_domains
        if domains is not None and self.spread_domains:
            candidates = domains.interleave(candidates)
        grown: List[int] = []
        for n in candidates:
            if len(grown) == take:
                break
            self._state[n] = PROVISIONING
            self._ready_at[n] = ready_at
            grown.append(n)
        if not grown:
            return None
        self.last_grown = tuple(grown)
        self._sample(now)
        return ready_at

    def free_nodes(self, now: float) -> List[int]:
        """Allocatable node ids: idle and not quarantined, sorted."""
        idle = [n for n, s in sorted(self._state.items()) if s == IDLE]
        if self.health is None:
            return idle
        return [n for n in idle if not self.health.is_quarantined(n)]

    def allocate(self, nodes: Sequence[int], now: float) -> None:
        """Mark ``nodes`` busy (they must all be idle)."""
        self._advance_cost(now)
        for n in nodes:
            if self._state.get(n) != IDLE:
                raise ServiceError(
                    f"cannot allocate node {n}: state "
                    f"{self._state.get(n, 'absent')!r}"
                )
        for n in nodes:
            self._state[n] = BUSY
            self._idle_since.pop(n, None)
        self._sample(now)

    def release(self, nodes: Sequence[int], now: float) -> None:
        """Return busy ``nodes`` to idle at ``now``."""
        self._advance_cost(now)
        for n in nodes:
            if self._state.get(n) != BUSY:
                raise ServiceError(
                    f"cannot release node {n}: state "
                    f"{self._state.get(n, 'absent')!r}"
                )
        for n in nodes:
            self._state[n] = IDLE
            self._idle_since[n] = now
        self._sample(now)

    def reclaim_idle(self, now: float) -> List[int]:
        """Drain-and-reclaim: offline every node idle for
        ``idle_reclaim_s``, newest-id first, keeping ``min_nodes`` of
        online capacity.  Returns the reclaimed ids."""
        self._advance_cost(now)
        reclaimed: List[int] = []
        candidates = sorted(
            (
                n
                for n, s in self._state.items()
                if s == IDLE
                and now - self._idle_since[n] >= self.idle_reclaim_s
            ),
            reverse=True,
        )
        for n in candidates:
            if self.provisioned <= self.min_nodes:
                break
            self._state[n] = OFFLINE
            del self._idle_since[n]
            reclaimed.append(n)
        if reclaimed:
            self._sample(now)
        return reclaimed

    def next_reclaim(self) -> Optional[float]:
        """Earliest time an idle node becomes reclaimable (the service
        schedules its reclaim timer here); ``None`` when no idle node
        is above the floor or reclaim is disabled."""
        if (
            self.idle_reclaim_s == float("inf")
            or self.provisioned <= self.min_nodes
            or not self._idle_since
        ):
            return None
        return min(self._idle_since.values()) + self.idle_reclaim_s

    def fail_nodes(self, nodes: Sequence[int], now: float) -> List[int]:
        """Hard-fail ``nodes``: force them offline from *any* state at
        ``now`` (a ``domain_loss`` rips a rack out regardless of what
        each node was doing).  Returns the subset that was busy, so the
        caller can reconcile in-flight jobs."""
        self._advance_cost(now)
        was_busy: List[int] = []
        changed = False
        for n in nodes:
            state = self._state.get(n)
            if state is None:
                raise ServiceError(f"node {n} is not in the pool")
            if state == OFFLINE:
                continue
            if state == BUSY:
                was_busy.append(n)
            self._state[n] = OFFLINE
            self._ready_at.pop(n, None)
            self._idle_since.pop(n, None)
            changed = True
        if changed:
            self._sample(now)
        return was_busy

    # ------------------------------------------------------------------
    def finish(self, now: float) -> None:
        """Close the cost integral at the service end time."""
        self._advance_cost(now)
        self._sample(now)

    def timeline_dicts(self) -> List[Dict[str, object]]:
        """JSON-safe pool timeline."""
        return [s.to_dict() for s in self.timeline]

    # ------------------------------------------------------------------
    # snapshot / restore (service journal)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of every mutable field the journal needs
        to resurrect the pool mid-horizon (timeline excluded — the
        recovered service restarts it at the restore time)."""
        return {
            "state": {str(n): s for n, s in sorted(self._state.items())},
            "ready_at": {
                str(n): t for n, t in sorted(self._ready_at.items())
            },
            "idle_since": {
                str(n): t for n, t in sorted(self._idle_since.items())
            },
            "node_seconds": self.node_seconds,
            "last_t": self._last_t,
        }

    def restore(self, snap: Dict[str, object]) -> None:
        """Overwrite this pool's mutable state from :meth:`to_dict`
        output (configuration — floors, delays, machine — comes from
        the constructor, not the snapshot)."""
        state = {int(n): s for n, s in snap["state"].items()}  # type: ignore[union-attr]
        if set(state) != set(self._state):
            raise ServiceError(
                "pool snapshot node set does not match this machine"
            )
        self._state = state
        self._ready_at = {
            int(n): float(t)
            for n, t in snap["ready_at"].items()  # type: ignore[union-attr]
        }
        self._idle_since = {
            int(n): float(t)
            for n, t in snap["idle_since"].items()  # type: ignore[union-attr]
        }
        self.node_seconds = float(snap["node_seconds"])  # type: ignore[arg-type]
        self._last_t = float(snap["last_t"])  # type: ignore[arg-type]
        self.timeline = []
        self._sample(self._last_t)
