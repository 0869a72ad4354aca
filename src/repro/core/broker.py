"""Queue-backed campaign transport: an embedded broker + elastic workers.

Remote execution goes through a small, dependency-free **broker** that
decouples worker lifetime from the coordinator, over the
length-prefixed pickle frames of :mod:`repro.core.transport`:

* :class:`EmbeddedBroker` -- a threaded TCP server holding one record
  per announced campaign (its chunk queue, its result queue with
  **duplicate-result rejection by token**, and its unacknowledged
  deliveries), the chunk leases of every worker, and a **worker
  registry with heartbeat TTLs**.  Every op names the campaign it acts
  on.  A worker that stops heartbeating (or whose connection drops) has
  its leased chunks requeued at the front of their campaign's queue and
  its crash counted; repeat offenders are quarantined.
* :class:`QueueTransport` -- a
  :class:`~repro.core.transport.WorkerTransport` implemented *against*
  a broker instead of against worker connections.  The coordinator
  puts chunk items and takes result frames; workers pull.  Workers can
  therefore join, leave, and rejoin mid-campaign without the
  coordinator noticing anything beyond throughput.
* :func:`serve_queue_worker` -- the worker loop behind ``ddt-explore
  worker --connect-broker``.  Each worker advertises a **capacity** in
  its hello (parallel simulation slots and cores) and keeps that many
  points in flight.  A worker with ``capacity > 1`` runs its leased
  points on a local process pool, so a 4-core box genuinely completes
  ~4x the points of a 1-core box.

Dispatch is thus capacity-weighted by construction -- a pull model in
which each worker's capacity is its weight.  What each worker did in
one campaign is reported by :meth:`QueueTransport.worker_stats` and
never carried into the next.

Determinism is untouched: results are slotted by submission token, the
broker deduplicates tokens (a requeued point that completes twice is
delivered once), and a record is a pure function of ``(application,
config, assignment)`` -- so queue-transport campaigns are bit-identical
on ``SimulationRecord.content_key()`` to serial runs (asserted by
``tests/test_broker.py`` and CI's ``queue-smoke`` job).

**Durability.**  Pass ``journal=DIR`` (CLI: ``ddt-explore broker
--journal DIR``) and every state-changing op is appended to a
:class:`~repro.core.journal.Journal` write-ahead log before it is
applied, with periodic compaction into a snapshot.  A restarted broker
replays snapshot+log, requeues any journaled leases and unacknowledged
deliveries at the queue front, and resumes -- combined with
:class:`BrokerClient`'s transparent reconnect (capped exponential
backoff + jitter, bounded by ``max_outage_s``) a broker kill/restart
mid-campaign is invisible to the coordinator and the fleet (asserted by
``tests/support/faults.py``'s broker-restart drill and CI's
``restart-smoke`` job).

**Multi-tenancy.**  Campaigns are *announced* onto a standing broker
(``announce`` / ``conclude`` / ``withdraw`` ops, all journaled).  The
ops ``put``, ``take`` and ``push_result`` name a campaign id, never a
queue, and act on that campaign's record alone, so one tenant can never
drain or poison another's state; ``withdraw`` drops the record and its
leases whole, and an op on a campaign the broker does not know creates
nothing.  Workers subscribe to the *broker*, not a campaign:
``take_any`` leases chunks across every running campaign under
**deficit round-robin** fair scheduling, weighted by each campaign's
announced ``--priority``.  A campaign is a job submitted to the
cluster; coordinators register on start and tear down (conclude, then
withdraw) on close without disturbing their neighbours.

Frames are pickle: expose the broker only to **trusted workers on a
trusted network**.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Mapping

from repro.core.journal import Journal, JournalWarning
from repro.core.results import SimulationRecord
from repro.core.simulate import run_simulation
from repro.core.transport import (
    WORKER_CRASH_EXIT,
    WORKER_REJECTED_EXIT,
    ChunkTask,
    FrameConnectionError,
    TransportError,
    WorkerTransport,
    _close_listener,
    _connect_with_retry,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.net.config import NetworkConfig

__all__ = [
    "BROKER_PROTOCOL",
    "BrokerClient",
    "BrokerUnavailableError",
    "EmbeddedBroker",
    "QueueTransport",
    "serve_queue_worker",
]

#: Broker wire-protocol version; a worker's hello and a coordinator's
#: ping must match it exactly.  Version 3 chunk entries are lane runs
#: (each assignment maps a structure to a tuple of DDTs).  Version 4
#: names a campaign id in every op where version 3 named a queue, so a
#: version-3 peer is refused instead of having its work filed under a
#: queue nobody reads.
BROKER_PROTOCOL = 4

#: Sequence for campaign ids minted by :meth:`QueueTransport.start`.
_CAMPAIGN_SEQ = count()

#: Seconds a :class:`BrokerClient` waits for a reply before it treats
#: the broker as unavailable.  Far above the longest hold any op asks
#: for (``take``/``take_any`` send a ``timeout`` of at most 0.4 s), so
#: only a listener that accepted but stopped answering reaches it.
REPLY_TIMEOUT_S = 30.0

#: Base deficit-round-robin quantum, in exploration *points* per visit.
#: Each running campaign banks ``DRR_QUANTUM * priority`` points every
#: time the scheduler's rotation reaches it, and may lease work while
#: its deficit covers the head chunk's point count -- so over time the
#: leased-point ratio between two busy campaigns converges to their
#: priority ratio, independent of chunk sizes.
DRR_QUANTUM = 8.0


def _mint_campaign_id() -> str:
    """A campaign id unique across hosts, processes and restarts.

    ``c{hostname}-{pid}-{seq}-{rand}``: the pid alone is not unique on a
    multi-host fleet (two coordinators on different machines can share a
    pid), and the in-process sequence alone does not survive a
    coordinator restart -- the random suffix disambiguates both.
    """
    return (
        f"c{socket.gethostname()}-{os.getpid()}-"
        f"{next(_CAMPAIGN_SEQ)}-{random.randrange(16 ** 6):06x}"
    )


def _is_chunk(item: Any) -> bool:
    """Whether ``item`` is a task the broker accepts: a chunk
    ``{"token", "points": [...]}`` of at least one point, every point a
    dict with its own ``token`` (results release a lease point by
    point, so a point without a token could never be released)."""
    if not isinstance(item, dict) or "token" not in item:
        return False
    points = item.get("points")
    return (
        isinstance(points, list)
        and bool(points)
        and all(isinstance(point, dict) and "token" in point for point in points)
    )


class BrokerUnavailableError(TransportError):
    """The broker could not be reached (or went away mid-request).

    Wraps the opaque socket-level failure (``ConnectionResetError``,
    ``EOFError``, a torn frame) with the op that was in flight and the
    broker address, so callers -- most importantly
    :class:`BrokerClient`'s reconnect loop -- can tell a broker outage
    apart from a genuine protocol error.
    """

    def __init__(self, op: str, address: str, cause: object) -> None:
        super().__init__(f"broker at {address} unavailable during {op!r}: {cause}")
        self.op = op
        self.address = address


class _BrokerWorker:
    """Broker-side registry entry of one heartbeating worker.

    Leases themselves live on the broker (``EmbeddedBroker._leases``),
    not here: a journaled lease must survive a restart, and after a
    restart the worker holding it is *not yet* connected.
    """

    def __init__(self, worker_id: str, meta: dict[str, Any], ttl: float) -> None:
        self.id = worker_id
        self.meta = meta
        self.expires_at = time.monotonic() + ttl
        #: connection currently bound to this worker (closed on expiry).
        self.conn: socket.socket | None = None


#: The :class:`_Campaign` fields a journal snapshot keeps.
_DURABLE = ("id", "spec", "priority", "state", "tasks", "results", "seen", "delivered")
#: The :class:`EmbeddedBroker` attributes it keeps besides the campaigns.
_DURABLE_BROKER = (
    "_leases", "_seen_workers", "_crashes", "_quarantined", "_requeues", "_dup_results"
)


@dataclass(eq=False)
class _Campaign:
    """One tenant's whole broker state; ``withdraw`` drops it in one step.

    Everything but ``consumer`` and ``deficit`` is durable (journal
    snapshots keep the :data:`_DURABLE` fields); those two restart
    empty after a replay.
    """

    id: str
    #: the announced :class:`~repro.core.engine.EnvSpec` workers hydrate.
    spec: Any = None
    priority: float = 1.0
    #: ``"running"`` until the coordinator concludes it, then ``"done"``.
    state: str = "running"
    #: chunk items waiting for a lease, FIFO.
    tasks: deque = field(default_factory=deque)
    #: result frames waiting for the coordinator, FIFO.
    results: deque = field(default_factory=deque)
    #: every result token accepted so far (duplicate rejection).
    seen: set = field(default_factory=set)
    #: token -> result frame taken by the coordinator, not yet acked.
    delivered: dict = field(default_factory=dict)
    #: the connection taking results; a new one gets the unacked again.
    consumer: Any = None
    #: deficit round-robin balance, in points.
    deficit: float = 0.0


# ----------------------------------------------------------------------
# the broker
# ----------------------------------------------------------------------
class EmbeddedBroker:
    """Dependency-free TCP broker serving campaigns to a worker fleet.

    One broker serves **any number of concurrent campaigns**: each
    announced campaign owns one record (chunk queue, result queue,
    seen tokens, unacknowledged deliveries), every op names the
    campaign it acts on, and the worker-facing ``take_any`` op
    arbitrates between running campaigns with priority-weighted deficit
    round-robin (see :data:`DRR_QUANTUM`).
    All state is in memory unless journaled; the broker is cheap enough
    to embed in the coordinator process (what ``ddt-explore campaign
    --transport queue`` does without ``--broker``) or to run standalone
    via ``ddt-explore broker`` as a shared cluster service.

    Parameters
    ----------
    bind:
        ``"host:port"`` or ``(host, port)``; port ``0`` picks an
        ephemeral port (read it back from :attr:`address`).  Bound in
        the constructor so the address is known before anything runs.
    heartbeat_ttl:
        Seconds a worker may go silent before it is presumed crashed:
        its leased chunks are requeued at the *front* of their
        campaign's queue and its crash count incremented.  Announced to
        workers in the hello reply, which heartbeat at ``ttl / 3``;
        *every* op from a registered worker re-arms its TTL, so the TTL
        only needs to outlast a single simulation point (a capacity-1
        worker cannot heartbeat while simulating inline).  A spuriously
        expired worker heals on its next heartbeat (re-registered, crash
        count kept) and the duplicate-token rejection keeps its
        twice-run points single-delivery, so results survive a too-small
        TTL -- it only costs repeat work and, eventually, quarantine.
    quarantine_after:
        Crash count at which a worker id is quarantined; its hellos,
        heartbeats and takes are rejected from then on.
    journal:
        ``None`` (default) keeps all state in memory.  A directory path
        turns on durability: every state-changing op is appended to a
        :class:`~repro.core.journal.Journal` write-ahead log *before* it
        is applied, and on construction the broker replays the
        directory's snapshot+log, requeues any journaled leases and
        unacknowledged deliveries at the queue front, and compacts -- a
        restart on the same directory resumes every campaign exactly
        where the previous process died.  Restart requeues are *not*
        counted as worker crashes: the workers are blameless, so nobody
        edges toward quarantine.
    compact_every:
        Fold the journal log into a fresh snapshot every this many
        appended records (ignored without ``journal``).
    """

    def __init__(
        self,
        bind: "str | tuple[str, int]" = ("127.0.0.1", 0),
        *,
        heartbeat_ttl: float = 15.0,
        quarantine_after: int = 2,
        journal: str | None = None,
        compact_every: int = 512,
    ) -> None:
        if heartbeat_ttl <= 0:
            raise ValueError("heartbeat_ttl must be > 0")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.heartbeat_ttl = heartbeat_ttl
        self.quarantine_after = quarantine_after
        self._listener = socket.create_server(
            parse_address(bind), reuse_port=False, backlog=32
        )
        self._cond = threading.Condition()
        #: campaign id -> its whole state -- the tenant registry, journaled.
        self._campaigns: dict[str, _Campaign] = {}
        #: the campaign deficit round-robin is serving (runtime-only).
        self._drr_current: str | None = None
        self._workers: dict[str, _BrokerWorker] = {}
        #: worker id -> {(campaign id, chunk token): (chunk, grant
        #: time)}; requeued at the queue front when the worker dies --
        #: or when the *broker* is restarted on a journal (the lease
        #: grants are journaled).  Keyed by campaign too: campaigns
        #: number their chunks independently, and one worker may hold
        #: chunks of several.  The grant time only ages leases in
        #: ``status``; a lease that survives a restart is requeued.
        self._leases: dict[str, dict[tuple[str, Any], tuple[dict, float]]] = {}
        self._seen_workers: set[str] = set()
        self._crashes: dict[str, int] = {}
        self._quarantined: list[str] = []
        self._requeues = 0
        self._dup_results = 0
        #: every open connection, so close() can drop them all -- a
        #: lingering accepted socket would otherwise hold the port
        #: against an immediate same-address restart.
        self._conns: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self._started_at = time.monotonic()
        self._journal: Journal | None = None
        if journal is not None:
            self._journal = Journal(journal, compact_every=compact_every)
            self._recover()

    def _recover(self) -> None:
        """Replay snapshot+log, then requeue every orphaned delivery."""
        assert self._journal is not None
        snapshot, entries = self._journal.load()
        with self._cond:
            if snapshot is not None:
                self._restore_snapshot_locked(snapshot)
            for entry in entries:
                try:
                    self._apply_locked(entry, journal=False)
                except Exception as exc:  # a damaged entry ends the replay
                    warnings.warn(
                        f"journal replay stopped on {entry!r}: {exc!r}",
                        JournalWarning,
                        stacklevel=2,
                    )
                    break
            if any(self._leases.values()) or any(
                c.delivered for c in self._campaigns.values()
            ):
                # The previous broker died holding leases / undelivered
                # acks: hand every such item back to its queue front so
                # the (re-connecting) fleet and coordinators get it again.
                self._apply_locked(("recover",))
            self._journal.compact(self._snapshot_locked())

    def _snapshot_locked(self) -> dict[str, Any]:
        # Compaction pickles this at once, under the lock: no copies.
        state = {name: getattr(self, name) for name in _DURABLE_BROKER}
        state["_campaigns"] = {
            cid: {name: getattr(c, name) for name in _DURABLE}
            for cid, c in self._campaigns.items()
        }
        return state

    def _restore_snapshot_locked(self, snapshot: Mapping[str, Any]) -> None:
        for name in _DURABLE_BROKER:
            setattr(self, name, snapshot[name])
        self._campaigns = {
            cid: _Campaign(**fields) for cid, fields in snapshot["_campaigns"].items()
        }

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound ``host:port`` clients should connect to."""
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def start(self) -> "EmbeddedBroker":
        """Begin accepting connections and sweeping expired workers."""
        with self._cond:
            if self._closed:
                raise TransportError("broker is closed")
            if self._started:
                return self
            self._started = True
        for target, name in (
            (self._accept_loop, "ddt-broker-accept"),
            (self._sweep_loop, "ddt-broker-sweep"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def close(self) -> None:
        """Stop serving; compact the journal, if any (idempotent).

        A *clean* close keeps the journaled campaigns intact -- leases
        and announcements survive into the snapshot, so a restarted
        broker resumes.  Use :meth:`drop_announcement` first for a
        deliberate end-of-service shutdown.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._workers.clear()
            conns = list(self._conns)
            self._conns.clear()
            self._cond.notify_all()
        _close_listener(self._listener)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._journal is not None:
            with self._cond:
                self._journal.compact(self._snapshot_locked())
            self._journal.close()

    def drop_announcement(self) -> None:
        """Withdraw every campaign announcement (journaled).

        The standalone broker's signal handlers call this before
        :meth:`close`, so a worker launched after a *deliberate*
        shutdown waits for the next campaign instead of reading a stale
        one from the journal.
        """
        with self._cond:
            if not self._closed:
                for cid in list(self._campaigns):
                    self._apply_locked(("withdraw", cid))
                self._cond.notify_all()

    def __enter__(self) -> "EmbeddedBroker":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # background loops
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _sweep_loop(self) -> None:
        interval = max(0.02, min(0.25, self.heartbeat_ttl / 5.0))
        with self._cond:
            while not self._closed:
                now = time.monotonic()
                for worker_id in [
                    w for w, e in self._workers.items() if e.expires_at < now
                ]:
                    self._fail_worker_locked(worker_id)
                # close() notifies the condition, so shutdown never
                # waits out the interval.
                self._cond.wait_for(lambda: self._closed, timeout=interval)

    def _requeue_leases_locked(self, worker_id: str, count: bool) -> None:
        """Hand a departing worker's leased chunks back, at the queue front.

        ``count`` distinguishes a presumed crash (tracked on the
        ``requeues`` counter the drills assert on) from a clean goodbye.
        Requeues count points: a half-finished chunk was already
        stripped of its completed points by the ``result`` reducer.
        """
        held = self._leases.pop(worker_id, None) or {}
        for (cid, _token), (chunk, _granted) in reversed(list(held.items())):
            self._campaigns[cid].tasks.appendleft(chunk)
            if count:
                self._requeues += len(chunk["points"])

    def _drop_campaign_locked(self, cid: str) -> None:
        """Drop one campaign's record and every lease on its chunks;
        every other tenant's state is untouched."""
        self._campaigns.pop(cid, None)
        if self._drr_current == cid:
            self._drr_current = None
        for worker_id, held in list(self._leases.items()):
            for key in [key for key in held if key[0] == cid]:
                del held[key]
            if not held:
                del self._leases[worker_id]

    def _release_point_locked(self, worker_id: str, cid: str, token: Any) -> None:
        """Strip one completed point from the worker's lease on its chunk.

        This runs inside the journaled ``result`` reducer, so both the
        live broker and a journal replay agree point-for-point on what a
        lease still owes: a crash (or broker restart) after a half-acked
        chunk requeues only the unfinished points, and the ``seen``
        dedup set makes any overlap harmless.
        """
        held = self._leases.get(worker_id) or {}
        for key, (chunk, granted) in held.items():
            if key[0] != cid:
                continue
            rest = [point for point in chunk["points"] if point["token"] != token]
            if len(rest) == len(chunk["points"]):
                continue
            if rest:
                held[key] = ({**chunk, "points": rest}, granted)
            else:
                del held[key]
            return

    def _fail_worker_locked(self, worker_id: str) -> None:
        """Presume one worker crashed: requeue leases, count the crash."""
        entry = self._workers.pop(worker_id, None)
        if entry is None:
            return
        self._apply_locked(("drop", worker_id, False))
        # The connection is left alone: a genuinely dead worker's socket
        # EOFs on its own, while a slow-but-alive worker re-registers on
        # its next heartbeat (its crash already counted).
        self._cond.notify_all()

    # ------------------------------------------------------------------
    # journaled state transitions
    # ------------------------------------------------------------------
    def _apply_locked(self, entry: tuple, *, journal: bool = True) -> Any:
        """Journal one logical op, then apply it (the write-ahead rule).

        Every mutation of durable state funnels through here, both live
        (``journal=True``: appended to the WAL first) and during replay
        (``journal=False``) -- so a restarted broker reconstructs
        *exactly* the state the live broker had, by construction.  The
        ops check that a named campaign exists before journaling, so
        every entry names a campaign the reducer knows.
        """
        if journal and self._journal is not None:
            self._journal.append(entry)
            if self._journal.due_for_compaction:
                self._journal.compact(self._snapshot_locked())
        op = entry[0]
        if op == "put":
            _, cid, chunk = entry
            self._campaigns[cid].tasks.append(chunk)
            return None
        if op == "lease":
            _, cid, worker_id = entry
            chunk = self._campaigns[cid].tasks.popleft()
            held = self._leases.setdefault(worker_id, {})
            held[(cid, chunk["token"])] = (chunk, time.monotonic())
            return chunk
        if op == "take":
            # The coordinator acknowledges what it saw, then takes up
            # to ``limit`` results; they stay delivered until acked.
            _, cid, acks, limit = entry
            campaign = self._campaigns[cid]
            for token in acks:
                campaign.delivered.pop(token, None)
            items = []
            while campaign.results and len(items) < limit:
                item = campaign.results.popleft()
                campaign.delivered[item["token"]] = item
                items.append(item)
            return items
        if op == "result":
            _, cid, token, payload, worker_id = entry
            campaign = self._campaigns[cid]
            if worker_id is not None:
                self._release_point_locked(worker_id, cid, token)
            if token in campaign.seen:
                self._dup_results += 1
                return True  # duplicate: deliver exactly once
            campaign.seen.add(token)
            campaign.results.append(
                {"token": token, "payload": payload, "worker": worker_id}
            )
            return False
        if op == "announce":
            # Open (or re-open) one campaign on a fresh record; the
            # id-liveness check happens at the op layer, so replay is a
            # pure function of the journal.
            announced = entry[1]
            cid = announced["id"]
            self._drop_campaign_locked(cid)
            self._campaigns[cid] = _Campaign(
                cid, announced["spec"], announced["priority"]
            )
            return None
        if op == "conclude":
            self._campaigns[entry[1]].state = "done"
            return None
        if op == "withdraw":
            self._drop_campaign_locked(entry[1])
            return None
        if op == "drop":
            _, worker_id, clean = entry
            self._requeue_leases_locked(worker_id, count=not clean)
            if not clean:
                crashes = self._crashes.get(worker_id, 0) + 1
                self._crashes[worker_id] = crashes
                if (
                    crashes >= self.quarantine_after
                    and worker_id not in self._quarantined
                ):
                    self._quarantined.append(worker_id)
            return None
        if op == "seen":
            self._seen_workers.add(entry[1])
            return None
        if op == "reclaim":
            self._reclaim_locked(self._campaigns[entry[1]])
            return None
        if op == "recover":
            # Broker restart: every un-acked delivery goes back to its
            # result queue front, then every lease to its chunk queue
            # front.  Requeues are counted (they are real repeat work)
            # but no crashes -- workers are blameless.
            for campaign in self._campaigns.values():
                self._reclaim_locked(campaign)
            for worker_id in list(self._leases):
                self._requeue_leases_locked(worker_id, count=True)
            return None
        raise ValueError(f"unknown journal entry {op!r}")

    @staticmethod
    def _reclaim_locked(campaign: _Campaign) -> None:
        """Redeliver every un-acked result, at the result queue front."""
        campaign.results.extendleft(reversed(campaign.delivered.values()))
        campaign.delivered.clear()

    # ------------------------------------------------------------------
    # per-connection protocol loop
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        bound_worker: str | None = None
        clean = False
        with self._cond:
            if self._closed:
                try:
                    conn.close()
                except OSError:
                    pass
                return
            self._conns.add(conn)
        try:
            while True:
                message = recv_frame(conn)
                if message is None:
                    return
                if message.get("type") != "cmd":
                    send_frame(
                        conn,
                        {"type": "reply", "ok": False, "error": "expected a cmd frame"},
                    )
                    continue
                op = str(message.get("op"))
                handler = getattr(self, f"_op_{op}", None)
                if handler is None:
                    reply = {"ok": False, "error": f"unknown op {op!r}"}
                else:
                    reply = handler(message, conn)
                if op in ("hello", "heartbeat") and reply.get("ok"):
                    bound_worker = str(message.get("worker"))
                if op == "goodbye" and reply.get("ok"):
                    clean = True
                send_frame(conn, {"type": "reply", **reply})
        except (OSError, TransportError):
            pass
        finally:
            with self._cond:
                self._conns.discard(conn)
            if bound_worker is not None and not clean:
                with self._cond:
                    entry = self._workers.get(bound_worker)
                    if not self._closed and entry is not None and entry.conn is conn:
                        self._fail_worker_locked(bound_worker)
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # ops (each runs on the connection thread, state under the lock)
    # ------------------------------------------------------------------
    def _campaign_locked(self, message: Mapping[str, Any]) -> _Campaign | None:
        """The record of the campaign ``message`` names, if announced."""
        cid = message.get("campaign")
        return self._campaigns.get(cid) if isinstance(cid, str) else None

    @staticmethod
    def _unknown_campaign(message: Mapping[str, Any]) -> dict[str, Any]:
        return {"ok": False, "error": f"unknown campaign {message.get('campaign')!r}"}

    def _state_locked(self) -> str | None:
        """Aggregate campaign state for the ``status`` snapshot:
        ``"done"`` only once *every* registered campaign concluded,
        ``None`` with no campaign registered."""
        if not self._campaigns:
            return None
        states = {c.state for c in self._campaigns.values()}
        return "done" if states == {"done"} else "running"

    def _running_locked(self) -> int:
        return sum(c.state == "running" for c in self._campaigns.values())

    def _leased_points_locked(self) -> dict[str, int]:
        """Points currently leased, per campaign id."""
        leased: dict[str, int] = {}
        for held in self._leases.values():
            for (cid, _token), (chunk, _granted) in held.items():
                leased[cid] = leased.get(cid, 0) + len(chunk["points"])
        return leased

    def _drr_pick_locked(self) -> _Campaign | None:
        """Pick the campaign the next ``take_any`` lease comes from.

        Stateful deficit round-robin: the current campaign keeps serving
        while its banked deficit covers its head chunk's point count;
        otherwise the rotation moves on, each visited campaign banking
        ``DRR_QUANTUM * priority`` points, until one can afford its
        head.  Two full rounds always suffice for sanely sized chunks;
        a pathological oversized head chunk falls back to the fullest
        deficit so progress never stalls.
        """
        active = [
            campaign
            for _cid, campaign in sorted(self._campaigns.items())
            if campaign.state == "running" and campaign.tasks
        ]
        if not active:
            return None
        ids = [campaign.id for campaign in active]
        if self._drr_current in ids:
            index = ids.index(self._drr_current)
            current = active[index]
            if current.deficit >= len(current.tasks[0]["points"]):
                return current
            start = index + 1
        else:
            start = 0
        for step in range(2 * len(active)):
            campaign = active[(start + step) % len(active)]
            campaign.deficit += DRR_QUANTUM * max(campaign.priority, 0.01)
            if campaign.deficit >= len(campaign.tasks[0]["points"]):
                self._drr_current = campaign.id
                return campaign
        fullest = max(active, key=lambda campaign: campaign.deficit)
        self._drr_current = fullest.id
        return fullest

    def _touch_locked(self, worker_id: str) -> None:
        """Any op from a registered worker is proof of life: re-arm its
        TTL, so a capacity-1 worker blocked in one long inline point only
        needs the TTL to outlast a single simulation, not a whole batch.
        """
        entry = self._workers.get(worker_id)
        if entry is not None:
            entry.expires_at = time.monotonic() + self.heartbeat_ttl

    def _fleet_locked(self) -> dict[str, Any]:
        return {
            "live": {w: dict(e.meta) for w, e in self._workers.items()},
            "seen": sorted(self._seen_workers),
            "crashes": dict(self._crashes),
            "quarantined": list(self._quarantined),
            "requeues": self._requeues,
            "dup_results": self._dup_results,
            "pending": {
                cid: len(c.tasks) for cid, c in self._campaigns.items() if c.tasks
            },
        }

    def _quarantined_reply(self, worker_id: str) -> dict[str, Any] | None:
        if worker_id not in self._quarantined:
            return None
        return {
            "ok": False,
            "quarantined": True,
            "error": f"worker {worker_id!r} is quarantined",
        }

    def _op_ping(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        return {"ok": True, "proto": BROKER_PROTOCOL}

    def _op_put(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Queue one chunk on its campaign (journaled)."""
        chunk = message.get("item")
        if not _is_chunk(chunk):
            return {
                "ok": False,
                "error": 'a task must be a chunk {"token", "points": [...]} '
                "whose every point has a token",
            }
        with self._cond:
            campaign = self._campaign_locked(message)
            if campaign is None:
                return self._unknown_campaign(message)
            self._apply_locked(("put", campaign.id, chunk))
            self._cond.notify_all()
            return {"ok": True, "size": len(campaign.tasks)}

    def _op_take(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Collect a campaign's results for its coordinator.

        ``ack`` lists the tokens of the previous take's results, so a
        restarted broker knows which deliveries the coordinator saw; up
        to ``max`` results come back, waiting up to ``timeout`` seconds
        for the first.  The reply carries the fleet too.
        """
        acks = list(message.get("ack") or ())
        limit = max(1, int(message.get("max") or 1))
        deadline = time.monotonic() + float(message.get("timeout") or 0.0)
        with self._cond:
            campaign = self._campaign_locked(message)
            if campaign is None:
                return self._unknown_campaign(message)
            if campaign.consumer is not conn and campaign.delivered:
                # A *new* consumer connection (the coordinator
                # reconnected): whatever the previous connection took
                # but never acknowledged was lost in flight -- hand it
                # back before serving.
                self._apply_locked(("reclaim", campaign.id))
            campaign.consumer = conn
            while not campaign.results:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.2))
                if self._closed:
                    return {"ok": False, "error": "broker is closed"}
                if self._campaigns.get(campaign.id) is not campaign:
                    return self._unknown_campaign(message)
            items = []
            if acks or campaign.results:
                items = self._apply_locked(("take", campaign.id, acks, limit))
            return {"ok": True, "items": items, "fleet": self._fleet_locked()}

    def _op_take_any(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Lease a chunk from whichever running campaign DRR picks.

        The worker op: the worker subscribes to the broker, not a
        campaign, and every reply names the campaign the chunk came
        from, so results are pushed back to the right one.  Only a
        worker that said hello may lease (its lease must be requeued if
        it dies).  ``running`` counts running campaigns -- workers exit
        once they have observed at least one campaign and the count
        returns to zero.

        The caller may send the ``running`` count it last saw; without
        one, the count at entry stands in.  A call with no work to lease
        returns at once, without an item, whenever the broker's count
        differs from it, so an announce, conclude or withdraw ends the
        wait instead of the timeout.
        """
        worker_id = str(message.get("worker"))
        deadline = time.monotonic() + float(message.get("timeout") or 0.0)
        with self._cond:
            seen = message.get("running")
            seen = self._running_locked() if seen is None else int(seen)
            while True:
                if self._closed:
                    return {"ok": False, "error": "broker is closed"}
                refused = self._quarantined_reply(worker_id)
                if refused is not None:
                    return refused
                if worker_id not in self._workers:
                    return {
                        "ok": False,
                        "error": f"worker {worker_id!r} must say hello before leasing",
                    }
                self._touch_locked(worker_id)
                running = self._running_locked()
                campaign = self._drr_pick_locked()
                if campaign is not None:
                    chunk = self._apply_locked(("lease", campaign.id, worker_id))
                    campaign.deficit -= len(chunk["points"])
                    return {
                        "ok": True,
                        "item": chunk,
                        "campaign": campaign.id,
                        "running": running,
                    }
                remaining = deadline - time.monotonic()
                if remaining <= 0 or running != seen:
                    return {
                        "ok": True,
                        "item": None,
                        "campaign": None,
                        "running": running,
                    }
                self._cond.wait(min(remaining, 0.2))

    def _op_campaigns(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """The tenant registry, announcements included (specs travel as
        pickle, like every frame) -- what workers hydrate environments
        from and coordinators poll during teardown."""
        with self._cond:
            leased = self._leased_points_locked()
            campaigns = {
                cid: {
                    "id": cid,
                    "spec": c.spec,
                    "priority": c.priority,
                    "state": c.state,
                    "tasks_pending": len(c.tasks),
                    "leased": leased.get(cid, 0),
                }
                for cid, c in self._campaigns.items()
            }
            running = self._running_locked()
            return {"ok": True, "campaigns": campaigns, "running": running}

    def _op_announce(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Register one campaign ``{id, spec, priority}`` (journaled).

        A re-announcement of a *live* (running) id is rejected: distinct
        coordinators must never silently cross-wire one campaign, and a
        reconnecting coordinator re-announces only after its campaign
        concluded or was withdrawn.  Re-announcing a concluded id starts
        it from a fresh record.
        """
        campaign = dict(message.get("campaign") or {})
        cid = campaign.get("id")
        if not cid or not isinstance(cid, str):
            return {"ok": False, "error": "announce requires a campaign id"}
        announced = {
            "id": cid,
            "spec": campaign.get("spec"),
            "priority": float(campaign.get("priority") or 1.0),
        }
        with self._cond:
            existing = self._campaigns.get(cid)
            if existing is not None and existing.state == "running":
                return {
                    "ok": False,
                    "error": f"campaign {cid!r} is already live on this broker",
                }
            self._apply_locked(("announce", announced))
            self._cond.notify_all()
            return {"ok": True, "campaign": cid}

    def _op_conclude(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Mark one campaign done (journaled; idempotent)."""
        with self._cond:
            campaign = self._campaign_locked(message)
            if campaign is not None and campaign.state != "done":
                self._apply_locked(("conclude", campaign.id))
            self._cond.notify_all()
            return {"ok": True}

    def _op_withdraw(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Drop one campaign's record and leases (journaled; idempotent)."""
        with self._cond:
            campaign = self._campaign_locked(message)
            if campaign is not None:
                self._apply_locked(("withdraw", campaign.id))
            self._cond.notify_all()
            return {"ok": True}

    def _op_push_result(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Accept one point's result for its campaign (journaled).

        A result for a campaign the broker no longer knows (withdrawn,
        its leases with it) is answered and dropped, leaving no state.
        """
        worker_id = message.get("worker")
        with self._cond:
            if worker_id is not None:
                self._touch_locked(str(worker_id))
            campaign = self._campaign_locked(message)
            if campaign is None:
                return {"ok": True, "dropped": True}
            # A requeued point that both the presumed-dead and the
            # replacement worker completed -- or a reconnecting worker
            # replaying its last un-replied push -- deliver exactly once.
            dup = self._apply_locked(
                (
                    "result",
                    campaign.id,
                    message.get("token"),
                    message.get("payload"),
                    worker_id,
                )
            )
            if not dup:
                self._cond.notify_all()
            return {"ok": True, "dup": dup}

    def _register_locked(
        self, worker_id: str, meta: dict[str, Any], conn: Any
    ) -> dict[str, Any]:
        refused = self._quarantined_reply(worker_id)
        if refused is not None:
            return refused
        entry = self._workers.get(worker_id)
        if entry is None:
            entry = _BrokerWorker(worker_id, meta, self.heartbeat_ttl)
            self._workers[worker_id] = entry
        elif meta:
            entry.meta = meta
        entry.expires_at = time.monotonic() + self.heartbeat_ttl
        entry.conn = conn
        if worker_id not in self._seen_workers:
            self._apply_locked(("seen", worker_id))
        self._cond.notify_all()
        running = self._running_locked()
        return {"ok": True, "ttl": self.heartbeat_ttl, "running": running}

    def _op_hello(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        if message.get("proto") != BROKER_PROTOCOL:
            return {"ok": False, "error": "broker protocol mismatch"}
        with self._cond:
            return self._register_locked(
                str(message.get("worker")), dict(message.get("meta") or {}), conn
            )

    def _op_heartbeat(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        # Carries the meta too, so a worker whose entry expired while it
        # was briefly silent transparently re-registers.
        with self._cond:
            return self._register_locked(
                str(message.get("worker")), dict(message.get("meta") or {}), conn
            )

    def _op_goodbye(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Clean departure: no crash penalty, leases requeued silently."""
        worker_id = str(message.get("worker"))
        with self._cond:
            entry = self._workers.pop(worker_id, None)
            if entry is not None or self._leases.get(worker_id):
                self._apply_locked(("drop", worker_id, True))
            self._cond.notify_all()
            return {"ok": True}

    def _op_fleet(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        with self._cond:
            return {"ok": True, "fleet": self._fleet_locked()}

    def _op_status(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """One JSON-safe snapshot of broker health for ``--status``."""
        now = time.monotonic()
        with self._cond:
            leases = {
                str(worker_id): {
                    "count": len(held),
                    "oldest_age_s": round(
                        now - min(granted for _chunk, granted in held.values()), 3
                    ),
                }
                for worker_id, held in self._leases.items()
                if held
            }
            leased = self._leased_points_locked()
            campaigns = {
                str(cid): {
                    "state": c.state,
                    "priority": c.priority,
                    "tasks_pending": len(c.tasks),
                    "results_pending": len(c.results),
                    "results_seen": len(c.seen),
                    "unacked": len(c.delivered),
                    "leased_points": leased.get(cid, 0),
                }
                for cid, c in self._campaigns.items()
            }
            status: dict[str, Any] = {
                "proto": BROKER_PROTOCOL,
                "uptime_s": round(now - self._started_at, 3),
                "state": self._state_locked(),
                "campaigns": campaigns,
                "leases": leases,
                "fleet": self._fleet_locked(),
                "heartbeat_ttl": self.heartbeat_ttl,
                "quarantine_after": self.quarantine_after,
                "journal": (
                    self._journal.position if self._journal is not None else None
                ),
            }
        return {"ok": True, "status": status}


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class BrokerClient:
    """One request/reply connection to a broker (thread-safe).

    Parameters
    ----------
    retry_s:
        Seconds to keep retrying the *initial* connect (workers may be
        launched before the broker).
    max_outage_s:
        ``0`` (default) keeps the historical behaviour: a connection
        failure mid-call raises :class:`BrokerUnavailableError`
        immediately.  ``> 0`` turns on **transparent reconnect**: a
        failed op reconnects with capped exponential backoff + jitter
        and is retried until it succeeds or the outage budget runs out.
        Safe because every broker op is idempotent or deduplicated
        (``push_result`` by token, ``take`` by ack and redelivery, and a
        ``take_any`` lease is requeued if its worker never runs it).
        A reply that does not come within :data:`REPLY_TIMEOUT_S` counts
        as such a failure.
    on_reconnect:
        Called with the client after each successful reconnect, *before*
        the pending op is retried -- the worker loop re-hellos here (via
        :meth:`call_direct`, which never recurses into the reconnect
        loop).  A :class:`BrokerUnavailableError` raised by the callback
        re-enters the backoff loop.
    """

    def __init__(
        self,
        address: "str | tuple[str, int]",
        *,
        retry_s: float = 10.0,
        max_outage_s: float = 0.0,
        on_reconnect: "Callable[[BrokerClient], None] | None" = None,
    ) -> None:
        host, port = parse_address(address)
        self.address = f"{host}:{port}"
        self.max_outage_s = max_outage_s
        self.on_reconnect = on_reconnect
        #: completed reconnects (one per survived outage).
        self.reconnects = 0
        #: duration of the most recent survived outage, seconds.
        self.last_outage_s = 0.0
        self._sock = _connect_with_retry((host, port), retry_s)
        self._sock.settimeout(REPLY_TIMEOUT_S)
        self._lock = threading.Lock()

    def call(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one command; return the raw reply dict.

        Reconnects and retries through broker outages up to
        ``max_outage_s`` (see above); raises
        :class:`BrokerUnavailableError` once the budget is exhausted.
        """
        try:
            return self.call_direct(op, **fields)
        except BrokerUnavailableError:
            if self.max_outage_s <= 0:
                raise
        return self._call_through_outage(op, fields)

    def call_direct(self, op: str, **fields: Any) -> dict[str, Any]:
        """One attempt, no reconnect (what ``on_reconnect`` should use)."""
        try:
            with self._lock:
                send_frame(self._sock, {"type": "cmd", "op": op, **fields})
                reply = recv_frame(self._sock)
        except (OSError, FrameConnectionError) as exc:
            # A reply that timed out or tore leaves the stream out of
            # step: drop the connection so no later call reads its tail.
            self.close()
            raise BrokerUnavailableError(op, self.address, exc) from exc
        if reply is None:
            raise BrokerUnavailableError(op, self.address, "broker hung up")
        if reply.get("type") != "reply":
            raise TransportError(f"unexpected broker frame: {reply.get('type')!r}")
        return reply

    def _call_through_outage(self, op: str, fields: dict[str, Any]) -> dict[str, Any]:
        began = time.monotonic()
        deadline = began + self.max_outage_s
        delay = 0.05
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BrokerUnavailableError(
                    op,
                    self.address,
                    f"outage exceeded max_outage_s={self.max_outage_s:.0f}",
                )
            # Capped exponential backoff with jitter, never past the
            # outage deadline.
            time.sleep(min(delay * (0.5 + random.random()), max(remaining, 0.0)))
            delay = min(delay * 2.0, 2.0)
            try:
                host, port = parse_address(self.address)
                with self._lock:
                    try:
                        self._sock.close()
                    except OSError:
                        pass
                    sock = socket.create_connection((host, port), timeout=10.0)
                    sock.settimeout(REPLY_TIMEOUT_S)
                    self._sock = sock
            except OSError:
                continue
            try:
                if self.on_reconnect is not None:
                    self.on_reconnect(self)
                reply = self.call_direct(op, **fields)
            except BrokerUnavailableError:
                continue  # the broker went away again; keep trying
            self.reconnects += 1
            self.last_outage_s = time.monotonic() - began
            return reply

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# coordinator side: the queue transport
# ----------------------------------------------------------------------
class QueueTransport(WorkerTransport):
    """A :class:`~repro.core.transport.WorkerTransport` over a broker.

    The coordinator never talks to workers: it announces its campaign,
    puts **chunk items** (an ordered block of points leased as one
    unit) on it and takes its result frames -- up to
    :attr:`RESULTS_PER_TAKE` per round-trip, batch-acked on the next
    take.  Every op names the campaign id.  Workers pull chunks at
    their own (capacity-weighted) pace, so the fleet is **elastic** --
    workers may join, leave and rejoin mid-campaign; the only
    coordinator-visible effect is throughput.  Results stay per-point:
    the broker strips each completed point out of its chunk lease (a
    journaled transition), so a crashed worker's lease requeues only
    unfinished points.

    Parameters
    ----------
    broker:
        ``None`` (default) embeds a private :class:`EmbeddedBroker`
        bound to ``bind`` and owns its lifetime; it serves from
        construction on, so workers can register before the campaign
        starts (a campaign of a few lane runs may otherwise end before a
        worker launched alongside it has said hello); an address string
        (``"host:port"``) connects to an externally run broker
        (``ddt-explore broker``); an :class:`EmbeddedBroker` instance is
        used as-is and *not* closed.
    bind:
        Where the owned embedded broker listens (ignored for external
        brokers).
    worker_timeout:
        Seconds to wait with work outstanding but **zero** live workers
        before failing the run.  Distinct from a *broker outage*: an
        unreachable broker is waited out with backoff (``max_outage_s``)
        and never starts the starvation clock.
    max_outage_s:
        Longest broker outage the coordinator rides out by
        reconnecting (60s by default; the broker-restart drill relies
        on it).  ``0`` fails the campaign on the first lost call, as
        before PR 6.
    on_outage:
        Optional callback invoked with a one-line message after each
        survived outage -- the campaign CLI routes it to stderr so
        restarts surface in the progress output.
    heartbeat_ttl / quarantine_after:
        Forwarded to the owned embedded broker (ignored for external
        brokers, which have their own configuration).
    priority:
        Fair-share weight of this campaign on a multi-tenant broker:
        the deficit-round-robin scheduler banks ``DRR_QUANTUM *
        priority`` points per rotation visit, so a priority-2 campaign
        leases roughly twice the points per unit time of a priority-1
        neighbour while both have work queued.  Must be > 0; 1.0 (the
        default) shares equally.

    Observability for the fault-injection drills of
    ``tests/support/faults.py``: :attr:`crashes`, :attr:`requeues`,
    :attr:`workers_seen`, :attr:`results_received`, :attr:`quarantined`.
    """

    def __init__(
        self,
        broker: "EmbeddedBroker | str | tuple[str, int] | None" = None,
        *,
        bind: "str | tuple[str, int]" = ("127.0.0.1", 0),
        worker_timeout: float = 60.0,
        max_outage_s: float = 60.0,
        on_outage: "Callable[[str], None] | None" = None,
        heartbeat_ttl: float = 15.0,
        quarantine_after: int = 2,
        priority: float = 1.0,
    ) -> None:
        super().__init__()
        if max_outage_s < 0:
            raise ValueError("max_outage_s must be >= 0")
        if priority <= 0:
            raise ValueError("priority must be > 0")
        self.worker_timeout = worker_timeout
        self.max_outage_s = max_outage_s
        self.on_outage = on_outage
        self.priority = float(priority)
        self._owns_broker = False
        self._broker: EmbeddedBroker | None = None
        self._broker_address: str | None = None
        if broker is None:
            self._broker = EmbeddedBroker(
                bind, heartbeat_ttl=heartbeat_ttl, quarantine_after=quarantine_after
            ).start()
            self._owns_broker = True
        elif isinstance(broker, EmbeddedBroker):
            self._broker = broker
        else:
            host, port = parse_address(broker)
            self._broker_address = f"{host}:{port}"
        self._client: BrokerClient | None = None
        self._campaign_id: str | None = None
        self._closed = False
        self._outstanding: set[Any] = set()
        #: tokens of results delivered but not yet acknowledged back to
        #: the broker (piggy-backed as a batch on the next take, so a
        #: restarted broker knows which deliveries the coordinator saw).
        self._pending_acks: list[Any] = []
        #: when the coordinator first *observed* a starved fleet (None
        #: while workers are live or no observation was made yet) --
        #: observation-based, so time spent riding out a broker outage
        #: can never be misattributed to worker starvation.
        self._starved_since: float | None = None
        #: crash counts per worker id, mirrored from the broker.
        self.crashes: dict[str, int] = {}
        #: distinct worker ids that ever registered at the broker.
        self.workers_seen: set[str] = set()
        #: points handed back to the queue after a presumed crash.
        self.requeues = 0
        #: results successfully received (deduplicated) by this run.
        self.results_received = 0
        self._meta: dict[str, dict[str, Any]] = {}
        self._point_stats: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The broker ``host:port`` workers should ``--connect-broker``."""
        if self._broker is not None:
            return self._broker.address
        assert self._broker_address is not None
        return self._broker_address

    # ------------------------------------------------------------------
    def start(self, spec: Any) -> None:
        """Check the broker's protocol, then announce the campaign.

        A broker of another :data:`BROKER_PROTOCOL` is refused before
        anything is announced: it would misread every campaign op.
        """
        if self._closed:
            raise TransportError("transport is closed")
        if self._client is not None:
            return
        client = BrokerClient(
            self.address,
            retry_s=10.0,
            max_outage_s=self.max_outage_s,
            on_reconnect=self._broker_reconnected,
        )
        campaign_id = _mint_campaign_id()
        try:
            proto = client.call("ping").get("proto")
            if proto != BROKER_PROTOCOL:
                raise TransportError(
                    f"broker at {self.address} speaks protocol {proto!r}; "
                    f"this coordinator speaks {BROKER_PROTOCOL}"
                )
            reply = client.call(
                "announce",
                campaign={"id": campaign_id, "spec": spec, "priority": self.priority},
            )
            if not reply.get("ok"):
                raise TransportError(str(reply.get("error")))
        except BaseException:
            client.close()
            raise
        self._client = client
        self._campaign_id = campaign_id
        self._starved_since = None

    #: Results pulled per coordinator take -- one round-trip drains up
    #: to this many finished points (each still individually acked).
    RESULTS_PER_TAKE = 32

    def submit_chunk(self, token: Any, chunk: "ChunkTask") -> None:
        """Put one chunk item on the campaign's queue.

        The chunk travels (and is leased) as a single queue item whose
        ``points`` list keeps every point individually addressable --
        workers push one result per point, and the broker strips
        completed points out of the lease so crash requeues stay
        point-granular.
        """
        if self._closed:
            raise TransportError("transport is closed")
        if self._client is None:
            raise TransportError("transport is not started")
        points = [
            {
                "token": point_token,
                "app": app_cls,
                "trace": trace_name,
                "params": app_params,
                "assignment": assignment,
            }
            for point_token, (
                app_cls,
                trace_name,
                app_params,
                assignment,
            ) in chunk.entries
        ]
        reply = self._client.call(
            "put", campaign=self._campaign_id, item={"token": token, "points": points}
        )
        if not reply.get("ok"):
            raise TransportError(str(reply.get("error")))
        self._outstanding.update(point["token"] for point in points)

    def next_results(self) -> "list[tuple[Any, SimulationRecord]]":
        """Pop a batch of deduplicated results; starve out on a dead fleet."""
        if self._client is None:
            raise TransportError("transport is not started")
        while True:
            if not self._outstanding:
                raise TransportError("no outstanding work")
            reply = self._client.call(
                "take",
                campaign=self._campaign_id,
                ack=self._pending_acks,
                max=self.RESULTS_PER_TAKE,
                timeout=0.2,
            )
            self._sync_outages()
            if not reply.get("ok"):
                raise TransportError(str(reply.get("error")))
            # The broker saw (and journaled) the acks; anything delivered
            # from here on is the new un-acked frontier.
            self._pending_acks = []
            self._absorb_fleet(reply.get("fleet"))
            items = reply["items"]
            if not items:
                self._check_starvation(reply.get("fleet"))
                continue
            batch: list[tuple[Any, SimulationRecord]] = []
            for item in items:
                self._pending_acks.append(item.get("token"))
                payload = item.get("payload") or {}
                if "error" in payload:
                    raise TransportError(
                        f"worker {item.get('worker')!r}: {payload['error']}"
                    )
                token = item.get("token")
                if token not in self._outstanding:
                    continue  # stale or redelivered frame: ack it, skip it
                self._outstanding.discard(token)
                self.results_received += 1
                self._account(item, payload)
                batch.append((token, payload["record"]))
            if batch:
                return batch

    def close(self) -> None:
        """Tear this campaign down; give workers a beat to wind it down.

        Campaign-scoped on a multi-tenant broker: conclude (workers stop
        leasing from this campaign), wait briefly for its leases to
        drain, then withdraw the namespace -- the broker and every other
        tenant keep running.  Only an *owned* embedded broker waits for
        the whole fleet to leave, since it is about to be closed under
        them.
        """
        if self._closed:
            return
        self._closed = True
        client, self._client = self._client, None
        self._outstanding.clear()
        try:
            if client is not None and self._campaign_id is not None:
                # Teardown must not stall on a full outage budget: if
                # the broker is gone now, a few seconds of retries is
                # plenty before giving up on the goodbye pleasantries.
                client.max_outage_s = min(client.max_outage_s, 5.0)
                client.call("conclude", campaign=self._campaign_id)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    reply = client.call("fleet")
                    self._absorb_fleet(reply.get("fleet"))
                    if self._owns_broker:
                        # Sole tenant by construction: workers observe
                        # zero running campaigns and say goodbye; wait
                        # so their exits are clean, then drop the broker.
                        if not reply.get("fleet", {}).get("live"):
                            break
                    else:
                        # Standing broker: wait only for *this*
                        # campaign's leases -- the fleet stays, serving
                        # the other tenants.
                        mine = (
                            client.call("campaigns")
                            .get("campaigns", {})
                            .get(self._campaign_id)
                        )
                        if mine is None or not mine.get("leased"):
                            break
                    time.sleep(0.1)
                # Withdraw the namespace: a worker launched between
                # campaigns must wait for the next announcement, not
                # read this campaign's "done" and exit.
                client.call("withdraw", campaign=self._campaign_id)
        except (OSError, TransportError):
            pass
        finally:
            if client is not None:
                # Outages survived during teardown still count.
                self.outages = max(self.outages, client.reconnects)
                client.close()
            if self._broker is not None and self._owns_broker:
                self._broker.close()

    # ------------------------------------------------------------------
    def worker_stats(self) -> dict[str, dict[str, Any]]:
        """Measured per-worker dispatch records of this campaign.

        ``{worker: {capacity, points, busy_s, throughput}}`` -- what
        makes capacity-weighted dispatch observable after the fact.
        ``points`` counts the lane runs the worker simulated and
        ``busy_s`` the wall time it measured on them.  A per-run report
        only: nothing here feeds the next campaign's schedule.
        """
        stats: dict[str, dict[str, Any]] = {}
        for worker_id, point in self._point_stats.items():
            meta = self._meta.get(worker_id, {})
            span = max(point["last"] - point["first"], point["busy_s"], 1e-9)
            stats[worker_id] = {
                "capacity": int(meta.get("capacity") or 1),
                "points": int(point["points"]),
                "busy_s": round(point["busy_s"], 6),
                "throughput": round(point["points"] / span, 6),
            }
        return stats

    # ------------------------------------------------------------------
    def _broker_reconnected(self, client: BrokerClient) -> None:
        """Mid-outage reconnect: disarm the starvation clock.  Workers
        are reconnecting too, so an outage must never be misread as
        fleet starvation.  (Counting waits for :meth:`_sync_outages` --
        the op in flight may still fail and re-enter the backoff.)"""
        self._starved_since = None

    def _sync_outages(self) -> None:
        """Mirror the client's completed-reconnect count, surfacing each
        newly survived outage through ``on_outage``."""
        client = self._client
        if client is None or client.reconnects <= self.outages:
            return
        survived = client.reconnects - self.outages
        self.outages = client.reconnects
        if self.on_outage is not None:
            self.on_outage(
                f"broker connection lost; reconnected to {client.address} "
                f"after {client.last_outage_s:.1f}s "
                f"(outage {self.outages}, {survived} new)"
            )

    def _absorb_fleet(self, fleet: Mapping[str, Any] | None) -> None:
        if not fleet:
            return
        live = dict(fleet.get("live") or {})
        if live:
            self._starved_since = None
        for worker_id, meta in live.items():
            self._meta[worker_id] = dict(meta)
        self.workers_seen.update(fleet.get("seen") or ())
        self.crashes = dict(fleet.get("crashes") or {})
        self.requeues = int(fleet.get("requeues") or 0)
        for worker_id in fleet.get("quarantined") or ():
            if worker_id not in self.quarantined:
                self.quarantined.append(worker_id)

    def _check_starvation(self, fleet: Mapping[str, Any] | None) -> None:
        """Fail the run after ``worker_timeout`` of *observed* starvation.

        The clock arms on the first empty-fleet observation and is
        disarmed by any live worker or survived outage -- it never
        inherits wall time from before the observation (the old
        behaviour could fire instantly after a long broker-outage
        backoff, misattributing the outage to the fleet).
        """
        if fleet is not None and fleet.get("live"):
            self._starved_since = None  # _absorb_fleet disarmed it too
            return
        now = time.monotonic()
        if self._starved_since is None:
            self._starved_since = now
            return
        if now - self._starved_since > self.worker_timeout:
            raise TransportError(
                f"no workers registered for {self.worker_timeout:.0f}s with "
                "work pending (launch `ddt-explore worker --connect-broker "
                f"{self.address}`)"
            )

    def _account(self, item: Mapping[str, Any], payload: Mapping[str, Any]) -> None:
        worker_id = item.get("worker")
        if worker_id is None:
            return
        meta = payload.get("meta") or {}
        now = time.monotonic()
        point = self._point_stats.setdefault(
            str(worker_id),
            {"points": 0.0, "busy_s": 0.0, "first": now, "last": now},
        )
        point["points"] += 1
        point["busy_s"] += float(meta.get("wall") or 0.0)
        point["last"] = now


# ----------------------------------------------------------------------
# worker side (what `ddt-explore worker --connect-broker` runs)
# ----------------------------------------------------------------------
def _simulate_item(item: Mapping[str, Any], env: Any) -> SimulationRecord:
    config = NetworkConfig(item["trace"], item["params"])
    return run_simulation(item["app"], config, item["assignment"], env)


def _push_result(
    client: BrokerClient,
    campaign: str,
    worker_id: str,
    token: Any,
    payload: dict[str, Any],
) -> None:
    client.call(
        "push_result", campaign=campaign, token=token, payload=payload, worker=worker_id
    )


def serve_queue_worker(
    address: "str | tuple[str, int]",
    worker_id: str | None = None,
    *,
    capacity: int = 1,
    retry_s: float = 30.0,
    max_outage_s: float = 60.0,
    fail_after: int | None = None,
    log: Callable[[str], None] | None = None,
) -> int:
    """Run one queue worker until every observed campaign ends.

    Connects to the broker (retrying up to ``retry_s`` seconds, so
    workers may be launched before the broker or any campaign), says
    hello advertising its **capacity** (parallel simulation slots) and
    core count, and waits for at least one campaign announcement.  The
    worker subscribes to the **broker**, not to a campaign: every lease
    comes from the ``take_any`` op, which arbitrates between all running
    campaigns with priority-weighted deficit round-robin, and each reply
    names the campaign the chunk belongs to.  Per campaign, the worker
    lazily hydrates a :class:`~repro.core.simulate.SimulationEnvironment`
    from the announced :class:`~repro.core.engine.EnvSpec` and pushes
    each result to the campaign it was leased from, so serving two
    tenants at once never mixes their state.  The worker exits once it
    has observed at least one campaign and the broker reports zero
    still running.

    A worker with ``capacity > 1`` executes its leased points on a
    local :class:`~concurrent.futures.ProcessPoolExecutor` of that many
    processes and leases another chunk whenever fewer than ``capacity``
    points are in flight.  Pool processes build and cache one
    environment per campaign (see
    :func:`~repro.core.engine._run_campaign_point`), so interleaved
    chunks from different campaigns still reuse hydrated traces.

    The worker keeps no records of its own: every leased point is
    simulated, and the coordinator's
    :class:`~repro.core.engine.SimulationCache` is the only record store.
    A worker that crashes loses at most its leased points, which the
    broker requeues.

    ``fail_after=N`` is the fault-injection hook: hard-exit
    (:data:`~repro.core.transport.WORKER_CRASH_EXIT`, no goodbye) upon
    **leasing** the N-th point -- the lease is provably held when the
    crash happens, so the broker's requeue machinery is always
    exercised.

    A broker restart is ridden out transparently: the client reconnects
    with backoff for up to ``max_outage_s`` seconds (the worker's
    **reconnect window**), re-hellos so its registration and leases are
    re-established, and retries the interrupted op -- the broker's
    duplicate-token rejection makes a replayed ``push_result``
    harmless.  An outage longer than the window raises
    :class:`~repro.core.transport.TransportError` (the CLI maps it to
    :data:`~repro.core.transport.WORKER_CONNECT_EXIT`).

    Returns ``0`` on a clean campaign end,
    :data:`~repro.core.transport.WORKER_REJECTED_EXIT` when the broker
    rejected or quarantined the id.  Connection failures raise
    :class:`~repro.core.transport.TransportError` (the CLI maps them to
    a non-zero exit).
    """
    from repro.core.engine import _run_campaign_point

    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    host, port = parse_address(address)
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    emit = log if log is not None else (lambda message: None)

    meta = {
        "capacity": int(capacity),
        "cores": os.cpu_count() or 1,
        "pid": os.getpid(),
    }

    def rehello(reconnected: BrokerClient) -> None:
        # Re-register before the interrupted op is retried, so a retried
        # take is leased under this id again.  A rejected re-hello
        # (quarantined while away) is left for the main loop: its next
        # take sees the quarantine and exits with the rejected code.
        reconnected.call_direct(
            "hello", proto=BROKER_PROTOCOL, worker=worker_id, meta=meta
        )
        emit(f"worker {worker_id}: broker back at {host}:{port}, re-registered")

    client = BrokerClient(
        (host, port),
        retry_s=retry_s,
        max_outage_s=max_outage_s,
        on_reconnect=rehello,
    )
    pool: ProcessPoolExecutor | None = None
    try:
        reply = client.call(
            "hello", proto=BROKER_PROTOCOL, worker=worker_id, meta=meta
        )
        if not reply.get("ok"):
            emit(f"worker {worker_id}: rejected: {reply.get('error')}")
            return WORKER_REJECTED_EXIT
        ttl = float(reply.get("ttl") or 15.0)
        running = int(reply.get("running") or 0)
        if capacity > 1:
            # No initializer: pool processes hydrate one environment per
            # campaign on first use (``_run_campaign_point``), so a
            # shared pool serves interleaved tenants without rebuilds.
            pool = ProcessPoolExecutor(max_workers=capacity)

        # Per-campaign service context, hydrated lazily on first lease:
        # the announced spec and an inline environment (capacity 1).
        contexts: dict[str, "dict[str, Any]"] = {}

        def hydrate(cid: str) -> "dict[str, Any] | None":
            ctx = contexts.get(cid)
            if ctx is not None:
                return ctx
            info = client.call("campaigns").get("campaigns", {}).get(cid)
            if info is None:
                # Withdrawn between the lease and this lookup; the
                # withdrawal already stripped the lease broker-side.
                return None
            spec = info["spec"]
            ctx = {"spec": spec, "env": spec.build() if pool is None else None}
            contexts[cid] = ctx
            emit(
                f"worker {worker_id}: serving campaign {cid} from "
                f"{host}:{port} (capacity {capacity})"
            )
            return ctx

        sent = 0
        taken = 0
        inflight: dict[Any, "tuple[str, Any]"] = {}  # future -> (cid, point)
        last_beat = time.monotonic()
        # Workers may be launched before any campaign is submitted to the
        # standing broker, so running out of work means "done" only once
        # a campaign has been observed.  Until then the worker waits in
        # ``take_any``: it blocks in the broker, so the first chunk put is
        # leased at once, and it re-arms this worker's TTL, so a long wait
        # never counts as a crash (or leaves a lease unrecorded).  Each take
        # sends the running count last seen, so the broker answers the
        # moment a campaign is announced or the last one ends, not at the
        # timeout.
        observed = running > 0
        deadline = last_beat + retry_s
        while True:
            now = time.monotonic()
            if now - last_beat > ttl / 3.0:
                beat = client.call("heartbeat", worker=worker_id, meta=meta)
                if not beat.get("ok"):
                    emit(f"worker {worker_id}: dropped: {beat.get('error')}")
                    return WORKER_REJECTED_EXIT
                running = int(beat.get("running") or 0)
                observed = observed or running > 0
                last_beat = now

            item = None
            while len(inflight) < capacity:
                reply = client.call(
                    "take_any",
                    worker=worker_id,
                    timeout=0.0 if inflight else 0.4,
                    running=running,
                )
                if not reply.get("ok"):
                    if reply.get("quarantined"):
                        emit(f"worker {worker_id}: dropped: {reply.get('error')}")
                        return WORKER_REJECTED_EXIT
                    raise TransportError(str(reply.get("error")))
                running = int(reply.get("running") or 0)
                observed = observed or running > 0
                item = reply.get("item")
                if item is None:
                    break
                cid = str(reply.get("campaign"))
                ctx = hydrate(cid)
                if ctx is None:
                    continue
                # A chunk item carries a block of points under one lease.
                points = item["points"]
                taken += len(points)
                if fail_after is not None and taken >= fail_after:
                    # ``--fail-after`` counts *points leased*, never
                    # chunks: the chunk containing the N-th point is
                    # provably leased when the crash happens, so the
                    # broker's point-granular requeue is exercised.
                    emit(
                        f"worker {worker_id}: injected crash leasing "
                        f"point {taken}"
                    )
                    os._exit(WORKER_CRASH_EXIT)
                if pool is not None:
                    for point in points:
                        future = pool.submit(
                            _run_campaign_point,
                            cid,
                            ctx["spec"],
                            (
                                point["token"],
                                point["app"],
                                point["trace"],
                                point["params"],
                                point["assignment"],
                            ),
                        )
                        inflight[future] = (cid, point)
                    continue
                # capacity 1: simulate inline, one chunk at a time;
                # each point pushes its own result so the broker strips
                # it from the lease (and re-arms the TTL) as it lands.
                for point in points:
                    try:
                        record = _simulate_item(point, ctx["env"])
                    except Exception as exc:
                        _push_result(
                            client, cid, worker_id, point["token"],
                            {"error": repr(exc), "meta": {}},
                        )
                        raise
                    _push_result(
                        client, cid, worker_id, point["token"],
                        {"record": record, "meta": {"wall": record.wall_time_s}},
                    )
                    sent += 1
                break

            if pool is not None and inflight:
                done, _ = wait(
                    list(inflight), timeout=0.2, return_when=FIRST_COMPLETED
                )
                for future in done:
                    cid, finished = inflight.pop(future)
                    try:
                        _token, record = future.result()
                    except Exception as exc:
                        _push_result(
                            client, cid, worker_id, finished["token"],
                            {"error": repr(exc), "meta": {}},
                        )
                        raise
                    _push_result(
                        client, cid, worker_id, finished["token"],
                        {"record": record, "meta": {"wall": record.wall_time_s}},
                    )
                    sent += 1

            if running == 0 and item is None and not inflight:
                if observed:
                    client.call("goodbye", worker=worker_id)
                    emit(f"worker {worker_id}: campaigns done after {sent} points")
                    return 0
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"broker at {host}:{port} announced no campaign "
                        f"within {retry_s:.0f}s"
                    )
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        client.close()
