"""Write-ahead log and replay recovery for the online service.

PRs 1 and 4 made the *data plane* resilient — a job survives losing
ranks.  The control plane stayed a single point of failure: kill the
:class:`~repro.service.loop.OnlineService` loop and the moving window,
ready queue, in-flight wave manifests, pool lifecycle, and retry
bookkeeping all evaporate.  This module makes that state durable:

- :class:`ServiceJournal` — an append-only, byte-stable WAL.  Every
  state transition the loop makes (arrival/shed, window flush,
  dispatch, completion with its requeues and dead-letters, retry
  release, pool grow/ready/reclaim/fail, control-plane chaos) is one
  JSON-safe event, written *atomically*: a crash between events leaves
  a prefix whose replay is a consistent service state.
- :class:`ReplayState` — the control plane's state, and the only
  code that writes it: :meth:`ReplayState.apply` folds one event into
  it.  The running service holds one and changes it *only* by applying
  the events it journals, so what a WAL replays to is the state the
  service had — not a mirror of it — and a **snapshot** (taken every
  ``snapshot_interval`` events) is that state serialised, by
  construction identical to replaying the full prefix.
- :func:`recover_service` — replay a (possibly crash-truncated)
  journal into a freshly constructed service and resume the simulated
  clock mid-horizon.  Recovery is **exactly-once**: completed results
  in the WAL are never re-dispatched, requests that were in flight on
  a lost wave are requeued (without charging their retry budget — the
  crash was not their fault), and arrivals are regenerated from the
  seeded traffic model minus the ids the WAL already saw.

Crash injection is first-class: ``crash_at_event=k`` makes the k-th
append raise :class:`~repro.errors.JournalCrash` *without* recording
the event — the property test in ``tests/test_service_journal.py``
sweeps k over every index and asserts the recovered run's per-request
dispositions match the uncrashed run exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import records
from repro.errors import JournalCrash, ServiceError
from repro.service import pool
from repro.service.pool import BUSY, IDLE, OFFLINE, PROVISIONING

#: Event kinds a journal may contain (order here is documentation, not
#: precedence — precedence lives in the service loop's heap).
EVENT_KINDS = (
    "begin",      # run header: horizon, initial pool + health state
    "arrival",    # one traffic arrival: admitted into the window, or shed
    "flush",      # a window batch became ready (dispatchable)
    "dispatch",   # a job was placed and its outcome scheduled
    "complete",   # a job finished: served / requeued / dead-lettered
    "release",    # a retry backoff elapsed: request re-entered the window
    "pool",       # pool lifecycle: grow / ready / reclaim / grow_failed
    "chaos",      # a control-plane fault fired (or a domain restored)
    "recover",    # a crash-recovery reconciliation (requeues, releases)
    "end",        # run finished: closes the pool's integral and timeline
    "snapshot",   # full ReplayState dump (replay fast-forward point)
)


#: Pool-event op -> the lifecycle state its nodes enter.
_POOL_OPS = {"grow": PROVISIONING, "ready": IDLE, "reclaim": OFFLINE}


def _copy(obj):
    """Deep JSON-safe copy (snapshots must not alias live state)."""
    return json.loads(json.dumps(obj, sort_keys=True))


class ReplayState:
    """Every mutable :class:`OnlineService` field the journal can
    resurrect, with :meth:`apply` as its one writer — live (the
    service applies each event it journals) and on replay alike.

    Everything inside is plain JSON-safe data (request/record dicts,
    node-id keyed string states) — :meth:`to_dict` /
    :meth:`from_dict` round-trip byte-stably; the service reads it in
    place and parses a request dict only when it needs the object.
    """

    def __init__(self) -> None:
        self.t = 0.0
        self.horizon_s = 0.0
        self.offered = 0
        self.arrived_ids: set = set()
        #: request dicts held in the moving window, with hold-since times
        self.window: List[Dict[str, object]] = []
        #: flushed-but-unplaced batches: {seq, flushed_at, signature_key,
        #: requests (dicts)}
        self.ready: List[Dict[str, object]] = []
        #: in-flight wave manifests by job id: {requests, nodes, start_s,
        #: elapsed_s, lost_ids, canceled}
        self.inflight: Dict[str, Dict[str, object]] = {}
        #: retry backoffs in flight: {request, release_t}
        self.pending_release: List[Dict[str, object]] = []
        self.served: List[Dict[str, object]] = []
        self.rejections: List[Dict[str, object]] = []
        self.abandoned: List[Dict[str, object]] = []
        self.jobs: List[Dict[str, object]] = []
        self.tenant_served: Dict[str, float] = {}
        self.job_seq = 0
        self.batch_seq = 0
        #: the pool's book (:mod:`repro.service.pool`): {state,
        #: ready_at, idle_since, node_seconds, last_t}
        self.pool: Optional[Dict[str, object]] = None
        #: :func:`pool.sample` dicts of the book: at ``begin``, after
        #: every transition that moved a node, and at ``end``
        self.pool_timeline: List[Dict[str, object]] = []
        #: journal of the NodeHealthTracker the data plane charges, in
        #: its to_dict shape (a recovery rebuilds the tracker from it)
        self.health: Dict[str, object] = {
            "quarantine_threshold": 2,
            "quarantined": [],
            "incidents": [],
        }
        self.resil: Dict[str, float] = {}
        self.dead_by_cause: Dict[str, int] = {}
        #: chaos spec indices that already fired
        self.consumed_chaos: List[int] = []
        #: pending domain restores: {t, nodes}
        self.pending_restores: List[Dict[str, object]] = []
        self.down_until = 0.0

    def _pool_set(
        self,
        nodes: Iterable[int],
        state: str,
        t: float,
        ready_at: Optional[float] = None,
    ) -> None:
        if self.pool is None:
            raise ServiceError("pool transition before the begin event")
        if pool.transition(self.pool, nodes, state, t, ready_at):
            self.pool_timeline.append(pool.sample(self.pool, t))

    # ------------------------------------------------------------------
    # health journal
    # ------------------------------------------------------------------
    def _health_add(self, incidents, quarantine) -> None:
        self.health["incidents"].extend(_copy(list(incidents)))  # type: ignore[union-attr]
        for n in quarantine:
            if int(n) not in self.health["quarantined"]:  # type: ignore[operator]
                self.health["quarantined"].append(int(n))  # type: ignore[union-attr]

    def _health_reset(self, nodes) -> None:
        nodes = {int(n) for n in nodes}
        self.health["quarantined"] = [
            n for n in self.health["quarantined"] if n not in nodes  # type: ignore[union-attr]
        ]
        self.health["incidents"] = [
            i
            for i in self.health["incidents"]  # type: ignore[union-attr]
            if int(i["node"]) not in nodes
        ]

    # ------------------------------------------------------------------
    def _bump(self, deltas: Dict[str, object]) -> None:
        for key, val in deltas.items():
            if key == "by_cause":
                for cause, n in val.items():  # type: ignore[union-attr]
                    self.dead_by_cause[cause] = (
                        self.dead_by_cause.get(cause, 0) + int(n)
                    )
            else:
                self.resil[key] = self.resil.get(key, 0) + val  # type: ignore[operator]

    def _window_take(self, request_ids: Sequence[str]) -> List[Dict[str, object]]:
        held = {e["request"]["request_id"]: e for e in self.window}  # type: ignore[index]
        missing = set(request_ids) - set(held)
        if missing:
            raise ServiceError(
                f"journal flush references requests not in the window: "
                f"{sorted(missing)}"
            )
        taken = [held.pop(rid)["request"] for rid in request_ids]
        self.window = list(held.values())
        return taken  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def apply(self, kind: str, payload: Dict[str, object]) -> None:
        """Apply one journal event to the state (atomic by design:
        every event carries the complete consequence of its
        transition).  A payload the fold cannot read — a key missing,
        a value of the wrong shape — is a :class:`ServiceError` naming
        the event kind and the key, never a bare ``KeyError``."""
        try:
            self._apply(kind, payload)
        except KeyError as exc:
            raise ServiceError(
                f"journal {kind} event is missing key {exc.args[0]!r}"
            ) from None
        except (TypeError, ValueError, AttributeError, IndexError) as exc:
            raise ServiceError(
                f"journal {kind} event is malformed: {exc}"
            ) from None

    def _apply(self, kind: str, payload: Dict[str, object]) -> None:
        t = float(payload["t"])  # type: ignore[arg-type]
        if self.pool is not None:
            pool.advance(self.pool, t)
        self.t = max(self.t, t)
        if kind == "begin":
            self.horizon_s = float(payload["horizon_s"])  # type: ignore[arg-type]
            self.pool = _copy(payload["pool"])
            self.health = _copy(payload["health"])
            self.pool_timeline.append(pool.sample(self.pool, t))
        elif kind == "arrival":
            self.offered += 1
            rid = str(payload["request"]["request_id"])  # type: ignore[index]
            self.arrived_ids.add(rid)
            if payload["outcome"] == "admit":
                self.window.append(
                    {"request": _copy(payload["request"]), "since": t}
                )
            else:
                self.rejections.append(_copy(payload["rejection"]))
        elif kind == "flush":
            requests = self._window_take(payload["request_ids"])  # type: ignore[arg-type]
            self.ready.append(
                {
                    "seq": int(payload["seq"]),  # type: ignore[arg-type]
                    "flushed_at": t,
                    "signature_key": str(payload["signature_key"]),
                    "requests": requests,
                }
            )
            self.batch_seq = max(self.batch_seq, int(payload["seq"]))  # type: ignore[arg-type]
        elif kind == "dispatch":
            self._apply_dispatch(payload, t)
        elif kind == "complete":
            job_id = str(payload["job_id"])
            if job_id not in self.inflight:
                raise ServiceError(
                    f"journal completion for unknown in-flight job {job_id!r}"
                )
            del self.inflight[job_id]
            self.served.extend(_copy(list(payload.get("served", ()))))  # type: ignore[arg-type]
        elif kind == "release":
            req = _copy(payload["request"])
            rid = str(req["request_id"])
            self.pending_release = [
                e
                for e in self.pending_release
                if e["request"]["request_id"] != rid  # type: ignore[index]
            ]
            self.window.append({"request": req, "since": t})
        elif kind == "pool":
            op = str(payload["op"])
            if op in _POOL_OPS:
                self._pool_set(
                    payload.get("nodes", ()),  # type: ignore[arg-type]
                    _POOL_OPS[op],
                    t,
                    float(payload["ready_at"]) if op == "grow" else None,  # type: ignore[arg-type]
                )
            elif op != "grow_failed":  # which changes nothing in the pool
                raise ServiceError(f"unknown journal pool op {op!r}")
        elif kind == "end":  # the header's advance closed the integral
            self.pool_timeline.append(pool.sample(self.pool, t))  # type: ignore[arg-type]
        elif kind not in ("chaos", "recover", "snapshot"):
            # chaos / recover are nothing but directives; the state IS
            # the snapshot, and replay() fast-forwards to it
            raise ServiceError(f"unknown journal event kind {kind!r}")
        self._apply_directives(payload, t)

    def _apply_dispatch(self, payload: Dict[str, object], t: float) -> None:
        seq = int(payload["ready_seq"])  # type: ignore[arg-type]
        request_ids = [str(r) for r in payload["request_ids"]]  # type: ignore[union-attr]
        batch = next((b for b in self.ready if b["seq"] == seq), None)
        if batch is None:
            raise ServiceError(
                f"journal dispatch references unknown ready batch {seq}"
            )
        have = [r["request_id"] for r in batch["requests"]]  # type: ignore[index]
        if have[: len(request_ids)] != request_ids:
            raise ServiceError(
                f"journal dispatch members {request_ids} are not the "
                f"head of ready batch {seq} ({have})"
            )
        members = batch["requests"][: len(request_ids)]  # type: ignore[index]
        del batch["requests"][: len(request_ids)]  # type: ignore[union-attr]
        if not batch["requests"]:
            self.ready.remove(batch)
        nodes = [int(n) for n in payload["nodes"]]  # type: ignore[union-attr]
        self._pool_set(nodes, BUSY, t)
        record = _copy(payload["record"])
        self.jobs.append(record)
        self.job_seq = max(self.job_seq, int(payload["wave"]) + 1)  # type: ignore[arg-type]
        self.inflight[str(payload["job_id"])] = {
            "requests": _copy(members),
            "nodes": nodes,
            "start_s": t,
            "elapsed_s": float(payload["elapsed_s"]),  # type: ignore[arg-type]
            "lost_ids": [],
            "canceled": False,
        }
        self.tenant_served = _copy(payload["tenant_served"])

    def _apply_directives(self, payload: Dict[str, object], t: float) -> None:
        """What any event may carry besides its own arm of
        :meth:`_apply` — chaos and recovery events are nothing else:
        uniform directives, one code path applies them all."""
        if payload.get("spec_index") is not None:
            self.consumed_chaos.append(int(payload["spec_index"]))  # type: ignore[arg-type]
        if payload.get("down_until") is not None:
            self.down_until = float(payload["down_until"])  # type: ignore[arg-type]
        for job_id in payload.get("cancel_jobs", ()):  # type: ignore[union-attr]
            man = self.inflight.get(str(job_id))
            if man is not None:
                man["canceled"] = True
        for job_id, lost_ids in dict(
            payload.get("manifest_lost", {})  # type: ignore[arg-type]
        ).items():
            man = self.inflight.get(str(job_id))
            if man is not None:
                man["lost_ids"] = sorted(
                    set(man["lost_ids"]) | {str(r) for r in lost_ids}  # type: ignore[arg-type]
                )
        for job_id, record in dict(
            payload.get("update_jobs", {})  # type: ignore[arg-type]
        ).items():
            for i, existing in enumerate(self.jobs):
                if existing["job_id"] == job_id:
                    self.jobs[i] = _copy(record)
                    break
        # canceled manifests whose jobs were reconciled are dropped
        for job_id in payload.get("drop_jobs", ()):  # type: ignore[union-attr]
            self.inflight.pop(str(job_id), None)
        # fail, release, regrow: disjoint node sets, in the order the
        # pool timeline has always sampled them
        self._pool_set(payload.get("failed_nodes", ()), OFFLINE, t)  # type: ignore[arg-type]
        self._pool_set(payload.get("released_nodes", ()), IDLE, t)  # type: ignore[arg-type]
        grow = payload.get("pool_grow")
        if grow:
            self._pool_set(
                grow["nodes"], PROVISIONING, t, float(grow["ready_at"])  # type: ignore[index]
            )
        self._health_add(
            payload.get("incidents", ()), payload.get("quarantine", ())
        )
        if payload.get("reset"):
            self._health_reset(payload["reset"])  # type: ignore[arg-type]
            self.pending_restores = [
                e
                for e in self.pending_restores
                if set(e["nodes"]) != {int(n) for n in payload["reset"]}  # type: ignore[arg-type]
            ]
        if payload.get("restore_at") is not None:
            self.pending_restores.append(
                {
                    "t": float(payload["restore_at"]),  # type: ignore[arg-type]
                    "nodes": [int(n) for n in payload.get("quarantine", ())],  # type: ignore[union-attr]
                }
            )
        for entry in payload.get("requeued", ()):  # type: ignore[union-attr]
            self.pending_release.append(_copy(entry))
        for entry in payload.get("dead_letter", ()):  # type: ignore[union-attr]
            self.abandoned.append(_copy(entry["record"]))
        for rid in payload.get("drop_pending_release", ()):  # type: ignore[union-attr]
            self.pending_release = [
                e
                for e in self.pending_release
                if e["request"]["request_id"] != rid  # type: ignore[index]
            ]
        if payload.get("clear_window"):
            self.window = []
            self.ready = []
        self._bump(payload.get("resil", {}))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Byte-stable JSON-safe dump of the whole state: every
        public attribute, the two id collections sorted."""
        state = {k: v for k, v in vars(self).items() if k[0] != "_"}
        for key in ("arrived_ids", "consumed_chaos"):
            state[key] = sorted(state[key])
        return _copy(state)

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ReplayState":
        """Inverse of :meth:`to_dict`; anything but exactly its keys
        is a :class:`ServiceError` naming the stray or absent ones."""
        state = cls()
        records.check_keys(
            d, state.to_dict(), what="replay state", error=ServiceError
        )
        for key, val in _copy(d).items():
            setattr(state, key, set(val) if key == "arrived_ids" else val)
        return state


class ServiceJournal:
    """Append-only WAL: every event is folded into :attr:`state` and
    then stored, so the journal never holds an event that does not
    replay.  A service journaling here shares that state — it *is* the
    service's.

    Parameters
    ----------
    snapshot_interval:
        Append a full-state snapshot event after every this many
        regular events; ``0`` disables snapshots (replay starts from
        the beginning).
    crash_at_event:
        Fault-injection hook: the append that would write event index
        ``crash_at_event`` raises :class:`~repro.errors.JournalCrash`
        instead (the event is *lost*, exactly like a process dying
        before the write hit disk).  ``None`` never crashes.
    """

    def __init__(
        self,
        *,
        snapshot_interval: int = 0,
        crash_at_event: Optional[int] = None,
    ) -> None:
        if snapshot_interval < 0:
            raise ServiceError(
                f"snapshot_interval must be >= 0, got {snapshot_interval}"
            )
        self.snapshot_interval = int(snapshot_interval)
        self.crash_at_event = crash_at_event
        self._events: List[Tuple[str, Dict[str, object]]] = []
        #: the fold of every event appended so far
        self.state = ReplayState()
        self._since_snapshot = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[Tuple[str, Dict[str, object]]]:
        """The journaled events, in append order."""
        return list(self._events)

    def append(self, kind: str, payload: Dict[str, object]) -> None:
        """Fold one event into :attr:`state`, then durably record it.

        Raises :class:`JournalCrash` when the injected crash index
        comes due, :class:`ServiceError` when the fold refuses the
        event — either way the event is NOT recorded.
        """
        if (
            self.crash_at_event is not None
            and len(self._events) >= self.crash_at_event
        ):
            raise JournalCrash(
                f"injected control-plane crash at WAL event "
                f"{len(self._events)} ({kind})"
            )
        if kind != "snapshot":
            self.state.apply(kind, payload)
        self._events.append((kind, _copy(payload)))
        if kind == "snapshot":
            self._since_snapshot = 0
            return
        self._since_snapshot += 1
        if (
            self.snapshot_interval
            and self._since_snapshot >= self.snapshot_interval
        ):
            self._snapshot()

    def _snapshot(self) -> None:
        self.append(
            "snapshot", {"t": self.state.t, "state": self.state.to_dict()}
        )

    def seed(self, state: ReplayState) -> None:
        """Start this journal from a recovered state (adopted, not
        copied) instead of an empty service: the recovered run's first
        event is a snapshot of where it resumed."""
        self._events = []
        self.state = state
        self._snapshot()

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    @staticmethod
    def replay(
        events: Sequence[Tuple[str, Dict[str, object]]]
    ) -> Optional[ReplayState]:
        """Fold ``events`` into the state they describe, fast-forwarding
        from the latest snapshot.  ``None`` for an empty journal (the
        crash predated the first write — recovery is a cold start)."""
        if not events:
            return None
        start = 0
        state = ReplayState()
        try:
            for i, (kind, payload) in enumerate(events):
                if kind == "snapshot":
                    records.check_keys(
                        payload, ("t", "state"), what="snapshot", error=ServiceError
                    )
                    state = ReplayState.from_dict(payload["state"])  # type: ignore[arg-type]
                    start = i + 1
            for i, (kind, payload) in enumerate(list(events)[start:], start):
                state.apply(kind, payload)
        except ServiceError as exc:
            raise ServiceError(f"journal event {i} ({kind}): {exc}") from None
        return state

    # ------------------------------------------------------------------
    # persistence (byte-stable JSONL)
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One sorted-keys JSON line per event."""
        return "\n".join(
            json.dumps({"kind": k, "payload": p}, sort_keys=True)
            for k, p in self._events
        )

    @classmethod
    def from_jsonl(cls, text: str, **kwargs) -> "ServiceJournal":
        """Rebuild a journal (and its state) from :meth:`to_jsonl`.
        A torn line, a non-object record, or a record with a missing
        or stray field is a :class:`ServiceError` naming its line."""
        return cls._from_lines(
            records.parse_jsonl(text, what="journal", error=ServiceError),
            **kwargs,
        )

    @classmethod
    def _from_lines(cls, lines, **kwargs) -> "ServiceJournal":
        journal = cls(**kwargs)
        events: List[Tuple[str, Dict[str, object]]] = []
        for where, obj in lines:
            records.check_keys(
                obj, ("kind", "payload"), what=where, error=ServiceError
            )
            payload = obj["payload"]
            if not isinstance(payload, dict) or "t" not in payload:
                raise ServiceError(f"{where}: payload is missing key 't'")
            events.append((str(obj["kind"]), payload))
        journal._events = events
        journal.state = cls.replay(events) or journal.state
        return journal

    def to_file(self, path: Union[str, Path]) -> Path:
        """Write the JSONL journal to ``path``."""
        path = Path(path)
        path.write_text(self.to_jsonl() + "\n")
        return path

    @classmethod
    def from_file(cls, path: Union[str, Path], **kwargs) -> "ServiceJournal":
        """Read a JSONL journal back from ``path`` (refusals name it)."""
        return cls._from_lines(
            records.read_jsonl(path, error=ServiceError), **kwargs
        )


# ----------------------------------------------------------------------
def recover_service(
    service,
    journal: Union[ServiceJournal, Sequence[Tuple[str, Dict[str, object]]]],
    *,
    horizon_s: Optional[float] = None,
    mode: str = "resume",
    resume_delay_s: float = 0.0,
):
    """Resurrect a crashed service run and drive it to completion.

    Parameters
    ----------
    service:
        A *freshly constructed* :class:`~repro.service.loop.OnlineService`
        with the same configuration (machine, traffic seed, window,
        pool knobs) as the run that crashed.
    journal:
        The surviving :class:`ServiceJournal` (or its raw event list) —
        typically truncated mid-run by the crash.
    horizon_s:
        Traffic horizon of the original run; defaults to the horizon
        recorded in the journal's ``begin`` event.
    mode:
        ``"resume"`` — exactly-once recovery: durable results are kept,
        lost in-flight waves are requeued (no retry-budget charge), and
        the window/ready backlog continues where it stood.  ``"cold"``
        — the naive restart-from-empty baseline: everything in flight
        or queued is dead-lettered and the pool reboots at its floor.
    resume_delay_s:
        Simulated downtime between the crash and the recovered loop
        taking over (detection + restart).

    Returns the final :class:`~repro.service.report.ServiceReport`.
    """
    events = journal.events if isinstance(journal, ServiceJournal) else list(
        journal
    )
    state = ServiceJournal.replay(events)
    if state is None:
        # the crash predated the first write: nothing to recover
        if horizon_s is None:
            raise ServiceError(
                "cannot recover from an empty journal without horizon_s"
            )
        return service.run(horizon_s)
    if horizon_s is None:
        horizon_s = state.horizon_s
    service.restore(state, mode=mode, resume_delay_s=resume_delay_s)
    return service.resume(horizon_s)
