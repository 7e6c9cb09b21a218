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

The pool's mutable state is one JSON-safe *book* —
``{state, ready_at, idle_since, node_seconds, last_t}``, node ids as
string keys, exactly what the service WAL's ``begin`` event and
snapshots carry — and it has two writers, both here: :func:`advance`
(the one ``∫ provisioned dt``) and :func:`transition` (the one
state-setter).  :class:`~repro.service.journal.ReplayState` folds WAL
events through them, and keeps the pool-size timeline: one
:func:`sample` per transition that moved a node;
:class:`ElasticNodePool` adds what needs the machine — which nodes to
grow, which to reclaim — as pure pickers over the book.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.machine.model import MachineModel
from repro.records import Record

#: Node lifecycle states.
OFFLINE, PROVISIONING, IDLE, BUSY = "offline", "provisioning", "idle", "busy"


def advance(book: Dict[str, object], t: float) -> None:
    """Integrate provisioned (idle + busy) capacity of ``book`` up to
    ``t``; a ``t`` at or before the book's clock is a no-op."""
    last = float(book["last_t"])  # type: ignore[arg-type]
    if t > last:
        provisioned = sum(
            1 for s in book["state"].values() if s in (IDLE, BUSY)  # type: ignore[union-attr]
        )
        book["node_seconds"] = (
            float(book["node_seconds"]) + provisioned * (t - last)  # type: ignore[arg-type]
        )
        book["last_t"] = t


def transition(
    book: Dict[str, object],
    nodes: Iterable[int],
    state: str,
    t: float,
    ready_at: Optional[float] = None,
) -> bool:
    """Put ``nodes`` of ``book`` into lifecycle ``state`` at ``t``
    (``ready_at``: when provisioning ones come online).  True iff any
    node changed state."""
    changed = False
    for n in nodes:
        key = str(int(n))
        changed |= book["state"].get(key) != state  # type: ignore[union-attr]
        book["state"][key] = state  # type: ignore[index]
        if state == IDLE:
            book["idle_since"][key] = t  # type: ignore[index]
        else:
            book["idle_since"].pop(key, None)  # type: ignore[union-attr]
        if state != PROVISIONING:
            book["ready_at"].pop(key, None)  # type: ignore[union-attr]
        elif ready_at is not None:
            book["ready_at"][key] = ready_at  # type: ignore[index]
    return changed


@dataclass(frozen=True)
class PoolSample(Record):
    """One pool-size timeline entry (written on every change)."""

    t_s: float
    provisioned: int  # idle + busy (online capacity)
    busy: int
    provisioning: int


def sample(book: Dict[str, object], t: float) -> Dict[str, object]:
    """The size of ``book`` at ``t``, as a :class:`PoolSample` dict."""
    states = list(book["state"].values())  # type: ignore[union-attr]
    return {
        "t_s": float(t),
        "provisioned": states.count(IDLE) + states.count(BUSY),
        "busy": states.count(BUSY),
        "provisioning": states.count(PROVISIONING),
    }


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
        if not 0 <= provision_delay_s < float("inf"):
            raise ServiceError(
                f"provision_delay_s must be in [0, inf), got {provision_delay_s}"
            )
        if not idle_reclaim_s > 0:  # inf (the default) never reclaims
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
        #: the mutable state, in the journal's format (module docstring);
        #: a journaled or recovered service rebinds it to its fold's book
        self.book: Dict[str, object] = {
            "state": {
                str(n): IDLE if n < self.min_nodes else OFFLINE
                for n in range(machine.n_nodes)
            },
            "ready_at": {},  # provisioning -> online time
            "idle_since": {str(n): 0.0 for n in range(self.min_nodes)},
            "node_seconds": 0.0,  # provisioned-capacity cost integral
            "last_t": 0.0,
        }

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count(self, *states: str) -> int:
        return sum(1 for s in self.book["state"].values() if s in states)  # type: ignore[union-attr]

    def _nodes(self, state: str) -> List[int]:
        return sorted(
            int(n) for n, s in self.book["state"].items() if s == state  # type: ignore[union-attr]
        )

    @property
    def node_seconds(self) -> float:
        """Provisioned node-seconds integrated so far."""
        return float(self.book["node_seconds"])  # type: ignore[arg-type]

    @property
    def provisioned(self) -> int:
        """Online capacity: idle + busy nodes."""
        return self._count(IDLE, BUSY)

    @property
    def busy(self) -> int:
        """Nodes currently running a job."""
        return self._count(BUSY)

    @property
    def committed(self) -> int:
        """Capacity already paid for or en route: provisioned plus
        provisioning."""
        return self._count(IDLE, BUSY, PROVISIONING)

    def state_of(self, node: int) -> str:
        """The node's lifecycle state."""
        try:
            return self.book["state"][str(node)]  # type: ignore[index]
        except KeyError:
            raise ServiceError(f"node {node} is not in the pool") from None

    # ------------------------------------------------------------------
    # pickers — pure reads of the book; the service journals what they
    # pick and the fold applies it
    # ------------------------------------------------------------------
    def due_ready(self, now: float) -> List[int]:
        """Provisioning nodes whose delay has elapsed at ``now``."""
        return sorted(
            int(n) for n, t in self.book["ready_at"].items() if t <= now  # type: ignore[union-attr]
        )

    def ready_times(self) -> List[float]:
        """Distinct pending provisioning-completion times, sorted —
        a recovered service re-arms one wake-up per entry."""
        return sorted(set(self.book["ready_at"].values()))  # type: ignore[union-attr]

    def pick_grow(
        self,
        n_nodes: int,
        now: float,
        *,
        extra_delay_s: float = 0.0,
        failed: Sequence[int] = (),
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """The nodes a grow of up to ``n_nodes`` would start
        provisioning and the time they come online, or ``None`` when
        the pool is already at ``max_nodes`` (nothing would start).
        Quarantined offline nodes are never picked.  ``extra_delay_s``
        stalls this particular grow beyond the nominal delay (the
        ``provision_fail`` fault charges its stall here); ``failed``
        nodes count as already offline (a cold restart fails the whole
        pool and regrows in one transition).
        """
        if n_nodes < 1:
            raise ServiceError(f"n_nodes must be >= 1, got {n_nodes}")
        if not 0 <= extra_delay_s < float("inf"):
            raise ServiceError(
                f"extra_delay_s must be in [0, inf), got {extra_delay_s}"
            )
        gone = {int(n) for n in failed}
        offline = sorted(gone | set(self._nodes(OFFLINE)))
        committed = len(self.book["state"]) - len(offline)  # type: ignore[arg-type]
        candidates = [
            n
            for n in offline
            if not (self.health is not None and self.health.is_quarantined(n))
        ]
        domains = self.machine.fault_domains
        if domains is not None and self.spread_domains:
            candidates = domains.interleave(candidates)
        take = min(n_nodes, self.max_nodes - committed)
        grown = tuple(candidates[: max(0, take)])
        if not grown:
            return None
        return grown, now + self.provision_delay_s + extra_delay_s

    def free_nodes(self, now: float) -> List[int]:
        """Allocatable node ids: idle and not quarantined, sorted."""
        idle = self._nodes(IDLE)
        if self.health is None:
            return idle
        return [n for n in idle if not self.health.is_quarantined(n)]

    def pick_reclaim(self, now: float) -> List[int]:
        """Drain-and-reclaim candidates: every node idle for
        ``idle_reclaim_s``, newest-id first, short of what would take
        online capacity below ``min_nodes``."""
        since = self.book["idle_since"]
        due = [
            n
            for n in reversed(self._nodes(IDLE))
            if now - since[str(n)] >= self.idle_reclaim_s  # type: ignore[index]
        ]
        return due[: max(0, self.provisioned - self.min_nodes)]

    def next_reclaim(self) -> Optional[float]:
        """Earliest time an idle node becomes reclaimable (the service
        schedules its reclaim timer here); ``None`` when no idle node
        is above the floor or reclaim is disabled."""
        since = self.book["idle_since"]
        if (
            self.idle_reclaim_s == float("inf")
            or self.provisioned <= self.min_nodes
            or not since
        ):
            return None
        return min(since.values()) + self.idle_reclaim_s  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # restore (service journal)
    # ------------------------------------------------------------------
    def restore(self, book: Dict[str, object]) -> None:
        """Adopt ``book`` (a :attr:`book`-format dict, held by
        reference) as this pool's state (configuration — floors,
        delays, machine — comes from the constructor, not the book)."""
        if set(book["state"]) != set(self.book["state"]):  # type: ignore[arg-type,call-overload]
            raise ServiceError(
                "pool snapshot node set does not match this machine"
            )
        self.book = book
