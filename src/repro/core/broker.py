"""Queue-backed campaign transport: an embedded broker + elastic workers.

Remote execution goes through a small, dependency-free **broker** that
decouples worker lifetime from the coordinator -- Redis-like queue
semantics over the length-prefixed pickle frames of
:mod:`repro.core.transport`:

* :class:`EmbeddedBroker` -- a threaded TCP server holding named FIFO
  queues (campaign tasks), per-campaign result queues with
  **duplicate-result rejection by token**, the campaign registry (each
  announcement carries the pickled
  :class:`~repro.core.engine.EnvSpec` plus queue names), and a
  **worker registry with heartbeat TTLs**.  A worker that stops
  heartbeating (or whose connection drops) has its leased tasks
  requeued at the front of the task queue and its crash counted;
  repeat offenders are quarantined.
* :class:`QueueTransport` -- a
  :class:`~repro.core.transport.WorkerTransport` implemented *against*
  a broker instead of against worker connections.  The coordinator
  pushes chunk items and pops result frames; workers pull.  Workers can
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
(``announce`` / ``conclude`` / ``withdraw`` ops, all journaled) and
live side by side in a per-campaign namespace -- task/result queues and
seen-token sets are keyed by campaign id, so one tenant can never drain
or poison another's state.  Workers subscribe to the *broker*, not a
campaign: ``take_any`` leases chunks across every running campaign
under **deficit round-robin** fair scheduling, weighted by each
campaign's announced ``--priority``.  A campaign is a job submitted to
the cluster; coordinators register on start and tear down (conclude,
then withdraw) on close without disturbing their neighbours.

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

#: Broker wire-protocol version; a worker's hello must match it exactly.
#: Version 2 serves chunk items only, through ``take_any``.  Version 3
#: chunk entries are lane runs: each assignment maps a structure to a
#: tuple of DDTs, which a version-2 worker cannot run -- so older
#: workers are refused at hello instead of being mis-served.
BROKER_PROTOCOL = 3

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
#: its deficit covers the head item's point count -- so over time the
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


def _item_points(item: Any) -> int:
    """Number of exploration points one queue item carries.

    A chunk item (``{"token", "points": [...]}``) counts its block; a
    flat item counts 1.  Drives the point-granular ``requeues``
    accounting the fault drills assert on.
    """
    if isinstance(item, dict):
        points = item.get("points")
        if isinstance(points, (list, tuple)):
            return len(points)
    return 1


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


# ----------------------------------------------------------------------
# the broker
# ----------------------------------------------------------------------
class EmbeddedBroker:
    """Dependency-free TCP broker with Redis-like queue semantics.

    One broker serves **any number of concurrent campaigns**: every
    announced campaign owns a namespace (task/result queues and
    seen-token sets) and the worker-facing ``take_any`` op arbitrates
    between running campaigns with priority-weighted deficit
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
        its leased tasks are requeued at the *front* of the task queue
        and its crash count incremented.  Announced to workers in the
        hello reply, which heartbeat at ``ttl / 3``; *every* op from a
        registered worker re-arms its TTL, so the TTL only needs to
        outlast a single simulation point (a capacity-1 worker cannot
        heartbeat while simulating inline).  A spuriously expired
        worker heals on its next heartbeat (re-registered, crash count
        kept) and the duplicate-token rejection keeps its twice-run
        points single-delivery, so results survive a too-small TTL --
        it only costs repeat work and, eventually, quarantine.
    quarantine_after:
        Crash count at which a worker id is quarantined; its hellos,
        heartbeats and takes are rejected from then on.
    journal:
        ``None`` (default) keeps all state in memory, exactly as before.
        A directory path turns on durability: every state-changing op is
        appended to a :class:`~repro.core.journal.Journal` write-ahead
        log *before* it is applied, and on construction the broker
        replays the directory's snapshot+log, requeues any journaled
        leases and unacknowledged deliveries at the queue front, and
        compacts -- a restart on the same directory resumes the
        campaign exactly where the previous process died.  Restart
        requeues are *not* counted as worker crashes: the workers are
        blameless, so nobody edges toward quarantine.
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
        self._queues: dict[str, deque[Any]] = {}
        #: per result-queue token sets driving duplicate rejection.
        self._seen: dict[str, set[Any]] = {}
        #: campaign id -> announcement (id, tasks/results queue names,
        #: spec, priority, state) -- the tenant registry, journaled.
        self._campaigns: dict[str, dict[str, Any]] = {}
        #: deficit-round-robin scheduler state (runtime-only: fairness
        #: restarts from zero after a replay, which is itself fair).
        self._drr_deficit: dict[str, float] = {}
        self._drr_current: str | None = None
        self._workers: dict[str, _BrokerWorker] = {}
        #: worker id -> {token: (queue name, task item)}; requeued at the
        #: queue front when the worker dies -- or when the *broker* is
        #: restarted on a journal (the lease grants are journaled).
        self._leases: dict[str, dict[Any, tuple[str, Any]]] = {}
        #: lease grant times for the status op (runtime-only: leases
        #: that survive a restart are requeued, not aged).
        self._lease_times: dict[str, dict[Any, float]] = {}
        #: worker-less (coordinator) deliveries awaiting an ack:
        #: queue name -> {token: item}.  Requeued on recovery or when
        #: the consuming connection changes, so a reply the coordinator
        #: never saw is redelivered instead of lost.
        self._delivered: dict[str, dict[Any, Any]] = {}
        #: which connection each worker-less queue is being consumed on
        #: (runtime-only; a new consumer triggers redelivery).
        self._delivered_conn: dict[str, Any] = {}
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
        if snapshot is not None and "campaigns" not in snapshot:
            # Only a version-1 broker wrote snapshots without a campaign
            # registry; its state is refused, not translated.  A
            # version-2 snapshot carries the same registry and restores
            # (its key-value table is ignored).
            warnings.warn(
                "journal snapshot is record version 1 (no campaign "
                "registry); this broker cannot restore it, so replay "
                "stops there",
                JournalWarning,
                stacklevel=2,
            )
            snapshot, entries = None, []
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
            if any(self._leases.values()) or any(self._delivered.values()):
                # The previous broker died holding leases / undelivered
                # acks: hand every such task back to the queue front so
                # the (re-connecting) fleet picks it up again.
                self._apply_locked(("recover",))
            self._journal.compact(self._snapshot_locked())

    def _snapshot_locked(self) -> dict[str, Any]:
        return {
            "queues": {name: list(q) for name, q in self._queues.items()},
            "seen": {name: set(s) for name, s in self._seen.items()},
            "campaigns": {cid: dict(c) for cid, c in self._campaigns.items()},
            "leases": {w: dict(l) for w, l in self._leases.items()},
            "delivered": {q: dict(d) for q, d in self._delivered.items()},
            "seen_workers": set(self._seen_workers),
            "crashes": dict(self._crashes),
            "quarantined": list(self._quarantined),
            "requeues": self._requeues,
            "dup_results": self._dup_results,
        }

    def _restore_snapshot_locked(self, snapshot: Mapping[str, Any]) -> None:
        self._queues = {
            name: deque(items) for name, items in (snapshot.get("queues") or {}).items()
        }
        self._seen = {name: set(s) for name, s in (snapshot.get("seen") or {}).items()}
        self._campaigns = {cid: dict(c) for cid, c in snapshot["campaigns"].items()}
        self._leases = {w: dict(l) for w, l in (snapshot.get("leases") or {}).items()}
        self._delivered = {
            q: dict(d) for q, d in (snapshot.get("delivered") or {}).items()
        }
        self._seen_workers = set(snapshot.get("seen_workers") or ())
        self._crashes = dict(snapshot.get("crashes") or {})
        self._quarantined = list(snapshot.get("quarantined") or ())
        self._requeues = int(snapshot.get("requeues") or 0)
        self._dup_results = int(snapshot.get("dup_results") or 0)

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

        A *clean* close keeps the journaled campaign intact -- leases
        and the announcement survive into the snapshot, so a restarted
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
        """Hand a departing worker's leased tasks back, at the queue front.

        ``count`` distinguishes a presumed crash (tracked on the
        ``requeues`` counter the drills assert on) from a clean goodbye.
        """
        leases = self._leases.pop(worker_id, None)
        self._lease_times.pop(worker_id, None)
        if not leases:
            return
        for _token, (queue_name, item) in reversed(list(leases.items())):
            self._queues.setdefault(queue_name, deque()).appendleft(item)
            if count:
                # Point-granular: a half-finished chunk lease was already
                # stripped of its completed points by the "result"
                # reducer, so only genuinely unfinished points count.
                self._requeues += _item_points(item)

    def _requeue_delivered_locked(self, queue_name: str) -> None:
        """Redeliver every un-acked worker-less take, at the queue front."""
        delivered = self._delivered.get(queue_name)
        if not delivered:
            return
        queue = self._queues.setdefault(queue_name, deque())
        for _token, item in reversed(list(delivered.items())):
            queue.appendleft(item)
        delivered.clear()

    def _clear_campaign_locked(self, tasks: str, results: str) -> None:
        """Erase one campaign's namespace and nothing else.

        Queues, seen-token sets, un-acked deliveries and leases pointing
        at the campaign's queues are dropped; every other tenant's state
        is untouched -- this is the scoping that keeps campaign B's
        start (or teardown) from wiping campaign A's queued work.
        """
        for name in (tasks, results):
            self._queues.pop(name, None)
            self._seen.pop(name, None)
            self._delivered.pop(name, None)
            self._delivered_conn.pop(name, None)
        for worker_id, held in list(self._leases.items()):
            times = self._lease_times.get(worker_id, {})
            for token, (queue_name, _item) in list(held.items()):
                if queue_name in (tasks, results):
                    held.pop(token, None)
                    times.pop(token, None)
            if not held:
                self._leases.pop(worker_id, None)
                self._lease_times.pop(worker_id, None)

    def _release_lease_point_locked(self, worker_id: str, token: Any) -> None:
        """Release one completed point from a worker's leases.

        A legacy per-point lease (item token == point token) is dropped
        whole.  A chunk lease has the finished point **stripped from its
        item** instead -- this runs inside the journaled ``result``
        reducer, so both the live broker and a journal replay agree
        point-for-point on what a lease still owes: a crash (or broker
        restart) after a half-acked chunk requeues only the unfinished
        points, and the ``seen`` dedup set makes any overlap harmless.
        """
        lease_map = self._leases.get(worker_id)
        times = self._lease_times.get(worker_id, {})
        if lease_map:
            if token in lease_map:
                lease_map.pop(token, None)
                times.pop(token, None)
                return
            for lease_token, (queue_name, item) in list(lease_map.items()):
                points = item.get("points") if isinstance(item, dict) else None
                if not points:
                    continue
                if any(point.get("token") == token for point in points):
                    rest = [p for p in points if p.get("token") != token]
                    if rest:
                        lease_map[lease_token] = (
                            queue_name,
                            {**item, "points": rest},
                        )
                    else:
                        lease_map.pop(lease_token, None)
                        times.pop(lease_token, None)
                    return
        times.pop(token, None)

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
        *exactly* the state the live broker had, by construction.
        """
        if journal and self._journal is not None:
            self._journal.append(entry)
            if self._journal.due_for_compaction:
                self._journal.compact(self._snapshot_locked())
        op = entry[0]
        if op == "put":
            _, queue_name, item = entry
            self._queues.setdefault(queue_name, deque()).append(item)
            return None
        if op == "take":
            _, queue_name, worker_id, ack, leased = entry
            if ack is not None:
                # Batched coordinator takes acknowledge a list of
                # deliveries at once; a scalar ack is the legacy form.
                acks = ack if isinstance(ack, (list, tuple)) else (ack,)
                delivered = self._delivered.get(queue_name, {})
                for acked in acks:
                    delivered.pop(acked, None)
            queue = self._queues.get(queue_name)
            item = queue.popleft() if queue else None
            if item is not None:
                token = item.get("token") if isinstance(item, dict) else None
                if leased and worker_id is not None and token is not None:
                    self._leases.setdefault(worker_id, {})[token] = (queue_name, item)
                    self._lease_times.setdefault(worker_id, {})[token] = (
                        time.monotonic()
                    )
                elif worker_id is None and token is not None:
                    self._delivered.setdefault(queue_name, {})[token] = item
            return item
        if op == "result":
            _, queue_name, token, payload, worker_id = entry
            if worker_id is not None:
                self._release_lease_point_locked(worker_id, token)
            seen = self._seen.setdefault(queue_name, set())
            if token in seen:
                self._dup_results += 1
                return True  # duplicate: deliver exactly once
            seen.add(token)
            self._queues.setdefault(queue_name, deque()).append(
                {"token": token, "payload": payload, "worker": worker_id}
            )
            return False
        if op == "announce":
            # Open (or re-open) one campaign in its own namespace; the
            # id-liveness check happens at the op layer, so replay is a
            # pure function of the journal.
            campaign = dict(entry[1] or {})
            cid = str(campaign.get("id"))
            tasks = str(campaign.get("tasks") or f"tasks:{cid}")
            results = str(campaign.get("results") or f"results:{cid}")
            self._clear_campaign_locked(tasks, results)
            self._campaigns[cid] = {
                **campaign,
                "tasks": tasks,
                "results": results,
                "priority": float(campaign.get("priority") or 1.0),
                "state": "running",
            }
            return None
        if op == "conclude":
            campaign = self._campaigns.get(entry[1])
            if campaign is not None:
                campaign["state"] = "done"
            return None
        if op == "withdraw":
            cid = entry[1]
            campaign = self._campaigns.pop(cid, None)
            self._drr_deficit.pop(cid, None)
            if self._drr_current == cid:
                self._drr_current = None
            if campaign is not None:
                self._clear_campaign_locked(campaign["tasks"], campaign["results"])
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
            self._requeue_delivered_locked(entry[1])
            return None
        if op == "recover":
            # Broker restart: every un-acked delivery and lease goes
            # back to its queue front (deliveries first, so on a shared
            # queue the later-taken delivery lands *behind* the earlier
            # lease -- original FIFO order).  Requeues are counted (they
            # are real repeat work) but no crashes -- workers are
            # blameless.
            for queue_name in list(self._delivered):
                self._requeue_delivered_locked(queue_name)
            for worker_id in list(self._leases):
                self._requeue_leases_locked(worker_id, count=True)
            return None
        raise ValueError(f"unknown journal entry {op!r}")

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
    def _state_locked(self) -> str | None:
        """Aggregate campaign state for the ``status`` snapshot:
        ``"done"`` only once *every* registered campaign concluded,
        ``None`` with no campaign registered."""
        if not self._campaigns:
            return None
        states = {str(c.get("state")) for c in self._campaigns.values()}
        return "done" if states == {"done"} else "running"

    def _running_locked(self) -> dict[str, dict[str, Any]]:
        return {
            cid: c
            for cid, c in self._campaigns.items()
            if c.get("state") == "running"
        }

    def _leased_points_locked(self) -> dict[str, int]:
        """Points currently leased, per campaign tasks queue."""
        leased: dict[str, int] = {}
        for held in self._leases.values():
            for queue_name, item in held.values():
                leased[queue_name] = leased.get(queue_name, 0) + _item_points(item)
        return leased

    def _drr_pick_locked(self) -> str | None:
        """Pick the campaign the next ``take_any`` lease comes from.

        Stateful deficit round-robin: the current campaign keeps serving
        while its banked deficit covers its head item's point count;
        otherwise the rotation moves on, each visited campaign banking
        ``DRR_QUANTUM * priority`` points, until one can afford its
        head.  Two full rounds always suffice for sanely sized chunks;
        a pathological oversized head item falls back to the fullest
        deficit so progress never stalls.
        """
        active = sorted(
            cid
            for cid, c in self._running_locked().items()
            if self._queues.get(c["tasks"])
        )
        if not active:
            return None
        for cid in [c for c in self._drr_deficit if c not in self._campaigns]:
            del self._drr_deficit[cid]
        current = self._drr_current
        if current in active:
            head = self._queues[self._campaigns[current]["tasks"]][0]
            if self._drr_deficit.get(current, 0.0) >= _item_points(head):
                return current
            start = (active.index(current) + 1) % len(active)
        else:
            start = 0
        for step in range(2 * len(active)):
            cid = active[(start + step) % len(active)]
            priority = max(
                float(self._campaigns[cid].get("priority") or 1.0), 0.01
            )
            deficit = self._drr_deficit.get(cid, 0.0) + DRR_QUANTUM * priority
            self._drr_deficit[cid] = deficit
            head = self._queues[self._campaigns[cid]["tasks"]][0]
            if deficit >= _item_points(head):
                self._drr_current = cid
                return cid
        self._drr_current = max(active, key=lambda c: self._drr_deficit.get(c, 0.0))
        return self._drr_current

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
            "pending": {n: len(q) for n, q in self._queues.items() if q},
        }

    def _op_ping(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        return {"ok": True, "proto": BROKER_PROTOCOL}

    def _op_put(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        queue_name = str(message.get("queue"))
        with self._cond:
            self._apply_locked(("put", queue_name, message.get("item")))
            self._cond.notify_all()
            return {"ok": True, "size": len(self._queues[queue_name])}

    def _op_take(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        queue_name = str(message.get("queue"))
        timeout = float(message.get("timeout") or 0.0)
        worker_id = message.get("worker")
        ack = message.get("ack")
        batch = max(1, int(message.get("max") or 1))
        deadline = time.monotonic() + timeout
        with self._cond:
            if worker_id is None:
                # A *new* consumer connection on this worker-less queue
                # (the coordinator reconnected): whatever the previous
                # connection took but never acknowledged was lost in
                # flight -- hand it back before serving.
                if self._delivered_conn.get(queue_name) is not conn and self._delivered.get(queue_name):
                    self._apply_locked(("reclaim", queue_name))
                self._delivered_conn[queue_name] = conn
            while True:
                if self._closed:
                    return {"ok": False, "error": "broker is closed"}
                if worker_id is not None and worker_id in self._quarantined:
                    return {
                        "ok": False,
                        "quarantined": True,
                        "error": f"worker {worker_id!r} is quarantined",
                    }
                if worker_id is not None:
                    self._touch_locked(str(worker_id))
                if self._queues.get(queue_name):
                    leased = (
                        worker_id is not None and worker_id in self._workers
                    )
                    items: list[Any] = []
                    while len(items) < batch and self._queues.get(queue_name):
                        item = self._apply_locked(
                            ("take", queue_name, worker_id, ack, leased)
                        )
                        ack = None
                        if item is None:
                            break
                        items.append(item)
                    reply = {"ok": True, "item": items[0] if items else None}
                    if batch > 1:
                        reply["items"] = items
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        if ack is not None:
                            # Nothing to take, but the ack still clears
                            # the previous delivery from the journal.
                            self._apply_locked(
                                ("take", queue_name, worker_id, ack, False)
                            )
                        reply = {"ok": True, "item": None}
                    else:
                        self._cond.wait(min(remaining, 0.2))
                        continue
                if message.get("fleet"):
                    reply["fleet"] = self._fleet_locked()
                return reply

    def _op_take_any(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Lease work from whichever running campaign DRR picks.

        The multi-tenant worker op: the worker subscribes to the broker,
        not a campaign, and every reply names the campaign the item came
        from (plus its result queue) so results are pushed back into the
        right namespace.  ``running`` counts running campaigns --
        workers exit once they have observed at least one campaign and
        the count returns to zero.

        The caller may send the ``running`` count it last saw; without
        one, the count at entry stands in.  A call with no work to lease
        returns at once, without an item, whenever the broker's count
        differs from it, so an announce, conclude or withdraw ends the
        wait instead of the timeout.
        """
        worker_id = message.get("worker")
        timeout = float(message.get("timeout") or 0.0)
        deadline = time.monotonic() + timeout
        with self._cond:
            seen = message.get("running")
            seen = len(self._running_locked()) if seen is None else int(seen)
            while True:
                if self._closed:
                    return {"ok": False, "error": "broker is closed"}
                if worker_id is not None and worker_id in self._quarantined:
                    return {
                        "ok": False,
                        "quarantined": True,
                        "error": f"worker {worker_id!r} is quarantined",
                    }
                if worker_id is not None:
                    self._touch_locked(str(worker_id))
                running = self._running_locked()
                cid = self._drr_pick_locked()
                if cid is not None:
                    campaign = self._campaigns[cid]
                    leased = worker_id is not None and worker_id in self._workers
                    item = self._apply_locked(
                        ("take", campaign["tasks"], worker_id, None, leased)
                    )
                    if item is not None:
                        self._drr_deficit[cid] = self._drr_deficit.get(
                            cid, 0.0
                        ) - _item_points(item)
                        return {
                            "ok": True,
                            "item": item,
                            "campaign": cid,
                            "results": campaign["results"],
                            "running": len(running),
                        }
                remaining = deadline - time.monotonic()
                if remaining <= 0 or len(running) != seen:
                    return {
                        "ok": True,
                        "item": None,
                        "campaign": None,
                        "running": len(running),
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
                    **dict(c),
                    "tasks_pending": len(self._queues.get(c["tasks"]) or ()),
                    "leased": leased.get(c["tasks"], 0),
                }
                for cid, c in self._campaigns.items()
            }
            return {
                "ok": True,
                "campaigns": campaigns,
                "running": len(self._running_locked()),
            }

    def _op_announce(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Register one campaign on the standing broker (journaled).

        A re-announcement of a *live* (running) id is rejected: distinct
        coordinators must never silently cross-wire one namespace, and a
        reconnecting coordinator re-announces only after its campaign
        concluded or was withdrawn.
        """
        campaign = dict(message.get("campaign") or {})
        cid = str(campaign.get("id") or "")
        if not cid:
            return {"ok": False, "error": "announce requires a campaign id"}
        with self._cond:
            existing = self._campaigns.get(cid)
            if existing is not None and existing.get("state") == "running":
                return {
                    "ok": False,
                    "error": f"campaign {cid!r} is already live on this broker",
                }
            self._apply_locked(("announce", campaign))
            self._cond.notify_all()
            return {"ok": True, "campaign": cid}

    def _op_conclude(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Mark one campaign done (journaled; idempotent)."""
        cid = str(message.get("campaign"))
        with self._cond:
            if cid in self._campaigns:
                self._apply_locked(("conclude", cid))
            self._cond.notify_all()
            return {"ok": True}

    def _op_withdraw(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Erase one campaign's namespace (journaled; idempotent)."""
        cid = str(message.get("campaign"))
        with self._cond:
            if cid in self._campaigns:
                self._apply_locked(("withdraw", cid))
            self._cond.notify_all()
            return {"ok": True}

    def _op_push_result(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        queue_name = str(message.get("queue"))
        token = message.get("token")
        worker_id = message.get("worker")
        with self._cond:
            if worker_id is not None:
                self._touch_locked(str(worker_id))
            # A requeued point that both the presumed-dead and the
            # replacement worker completed -- or a reconnecting worker
            # replaying its last un-replied push -- deliver exactly once.
            dup = self._apply_locked(
                ("result", queue_name, token, message.get("payload"), worker_id)
            )
            if not dup:
                self._cond.notify_all()
            return {"ok": True, "dup": bool(dup)}

    def _register_locked(
        self, worker_id: str, meta: dict[str, Any], conn: Any
    ) -> dict[str, Any]:
        if worker_id in self._quarantined:
            return {
                "ok": False,
                "quarantined": True,
                "error": f"worker {worker_id!r} is quarantined",
            }
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
        return {
            "ok": True,
            "ttl": self.heartbeat_ttl,
            "running": len(self._running_locked()),
        }

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
            leases: dict[str, dict[str, Any]] = {}
            for worker_id, held in self._leases.items():
                if not held:
                    continue
                times = self._lease_times.get(worker_id, {})
                ages = [now - granted for granted in times.values()]
                leases[str(worker_id)] = {
                    "count": len(held),
                    "oldest_age_s": round(max(ages), 3) if ages else None,
                }
            leased = self._leased_points_locked()
            campaigns = {
                str(cid): {
                    "state": str(c.get("state")),
                    "priority": float(c.get("priority") or 1.0),
                    "tasks_pending": len(self._queues.get(c["tasks"]) or ()),
                    "results_pending": len(self._queues.get(c["results"]) or ()),
                    "results_seen": len(self._seen.get(c["results"]) or ()),
                    "unacked": len(self._delivered.get(c["results"]) or ()),
                    "leased_points": leased.get(c["tasks"], 0),
                }
                for cid, c in self._campaigns.items()
            }
            status: dict[str, Any] = {
                "proto": BROKER_PROTOCOL,
                "uptime_s": round(now - self._started_at, 3),
                "state": self._state_locked(),
                "campaigns": campaigns,
                "queues": {
                    str(n): len(q) for n, q in self._queues.items() if q
                },
                "unacked": {
                    str(q): len(d) for q, d in self._delivered.items() if d
                },
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
        (``push_result`` by token, ``take`` redelivery by ack/lease).
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

    The coordinator never talks to workers: it pushes **chunk items**
    (an ordered block of points leased as one queue item) onto the
    broker's campaign task queue and pops result frames -- up to
    :attr:`RESULTS_PER_TAKE` per round-trip, batch-acked on the next
    take -- from the campaign result queue.  Workers pull chunks at
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
        self._tasks_q: str | None = None
        self._results_q: str | None = None
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
        """Announce the campaign on the broker and open the queues."""
        if self._closed:
            raise TransportError("transport is closed")
        if self._client is not None:
            return
        self._client = BrokerClient(
            self.address,
            retry_s=10.0,
            max_outage_s=self.max_outage_s,
            on_reconnect=self._broker_reconnected,
        )
        campaign_id = _mint_campaign_id()
        self._campaign_id = campaign_id
        self._tasks_q = f"tasks:{campaign_id}"
        self._results_q = f"results:{campaign_id}"
        reply = self._client.call(
            "announce",
            campaign={
                "id": campaign_id,
                "tasks": self._tasks_q,
                "results": self._results_q,
                "spec": spec,
                "priority": self.priority,
            },
        )
        if not reply.get("ok"):
            raise TransportError(str(reply.get("error")))
        self._starved_since = None

    #: Results pulled per coordinator take -- one round-trip drains up
    #: to this many finished points (each still individually acked).
    RESULTS_PER_TAKE = 32

    def submit_chunk(self, token: Any, chunk: "ChunkTask") -> None:
        """Push one chunk item onto the campaign task queue.

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
        self._client.call(
            "put",
            queue=self._tasks_q,
            item={"token": token, "points": points},
        )
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
                queue=self._results_q,
                timeout=0.2,
                fleet=True,
                ack=(self._pending_acks or None),
                max=self.RESULTS_PER_TAKE,
            )
            self._sync_outages()
            if not reply.get("ok"):
                raise TransportError(str(reply.get("error")))
            # The broker saw (and journaled) the acks; anything delivered
            # from here on is the new un-acked frontier.
            self._pending_acks = []
            self._absorb_fleet(reply.get("fleet"))
            items = reply.get("items")
            if items is None:
                item = reply.get("item")
                items = [] if item is None else [item]
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
    results_q: str,
    worker_id: str,
    token: Any,
    payload: dict[str, Any],
) -> None:
    client.call(
        "push_result",
        queue=results_q,
        token=token,
        payload=payload,
        worker=worker_id,
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
    names the campaign the chunk belongs to.  Per campaign, the worker lazily
    hydrates a :class:`~repro.core.simulate.SimulationEnvironment` from
    the announced :class:`~repro.core.engine.EnvSpec` and pushes
    results into that campaign's own result queue, so serving two
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
        # the announced spec, the campaign's own result queue and an
        # inline environment (capacity 1).
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
            ctx = {
                "spec": spec,
                "results": info["results"],
                "env": spec.build() if pool is None else None,
            }
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
                results_q = ctx["results"]
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
                            client, results_q, worker_id, point["token"],
                            {"error": repr(exc), "meta": {}},
                        )
                        raise
                    _push_result(
                        client, results_q, worker_id, point["token"],
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
                    ctx = contexts[cid]
                    try:
                        _token, record = future.result()
                    except Exception as exc:
                        _push_result(
                            client, ctx["results"], worker_id, finished["token"],
                            {"error": repr(exc), "meta": {}},
                        )
                        raise
                    _push_result(
                        client, ctx["results"], worker_id, finished["token"],
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
