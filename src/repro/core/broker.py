"""Queue-backed campaign transport: an embedded broker + elastic workers.

Remote execution goes through a small, dependency-free **broker** that
decouples worker lifetime from the coordinator, over the
length-prefixed pickle frames of :mod:`repro.core.transport`:

* :class:`EmbeddedBroker` -- a threaded TCP shell around one
  :class:`~repro.core.brokerstate.BrokerState`, the pure state machine
  that holds one record per announced campaign (its queue of lane runs,
  its result queue with **duplicate-result rejection by token**, and its
  unacknowledged deliveries), the leases of every worker, and a
  **worker registry with heartbeat TTLs**.  Every op names the campaign
  it acts on, and a lane run is the unit it queues, leases and
  requeues.  A worker that stops heartbeating (or whose connection
  drops, or whose id a new process registers) has its leased runs
  requeued at the front of their campaign's queue and its crash
  counted; repeat offenders are quarantined.  The state machine reads
  no clock: the shell passes the time of each call in as data, and a
  malformed frame gets an error reply naming the field.
* :class:`QueueTransport` -- a
  :class:`~repro.core.transport.WorkerTransport` implemented *against*
  a broker instead of against worker connections.  The coordinator
  puts lane runs, each queued as ``{"token", "run"}`` with the run a
  :class:`~repro.core.transport.LaneRun`, and takes result frames;
  workers pull.  Workers can therefore join, leave, and rejoin
  mid-campaign without the coordinator noticing anything beyond
  throughput.
* :func:`serve_queue_worker` -- the worker loop behind ``ddt-explore
  worker --connect-broker``.  Each worker advertises a **capacity** in
  its hello (parallel simulation slots and cores) and keeps that many
  lane runs leased.  A worker with ``capacity > 1`` runs its leased
  runs on a local process pool, so a 4-core box genuinely completes
  ~4x the runs of a 1-core box; every capacity runs through the one
  executor :func:`_simulate`.  A worker refuses a campaign announced
  by another build (another ``EnvSpec.model_digest``) before it
  simulates any of its runs.

Dispatch is thus capacity-weighted by construction -- a pull model in
which each worker's capacity is its weight.  What each worker did in
one campaign is reported by :meth:`QueueTransport.worker_stats` and
never carried into the next.

Determinism is untouched: results are slotted by submission token, the
broker deduplicates tokens (a requeued run that completes twice is
delivered once), and a record is a pure function of ``(application,
config, assignment)`` -- so queue-transport campaigns are bit-identical
on ``SimulationRecord.content_key()`` to serial runs (asserted by
``tests/test_broker.py`` and CI's ``queue-smoke`` job).

**Durability.**  Pass ``journal=DIR`` (CLI: ``ddt-explore broker
--journal DIR``) and every entry the state machine commits is appended
to a :class:`~repro.core.journal.Journal` write-ahead log before it is
applied, with periodic compaction into a snapshot.  A ``lease`` entry
carries its grant time, so replay is a function of the journal alone.
A restarted broker replays snapshot+log, requeues any journaled leases
and unacknowledged deliveries at the queue front, and resumes --
combined with :class:`BrokerClient`'s transparent reconnect (capped
exponential backoff + jitter, bounded by ``max_outage_s``) a broker
kill/restart mid-campaign is invisible to the coordinator and the fleet
(asserted by ``tests/support/faults.py``'s broker-restart drill and
CI's ``restart-smoke`` job).

**Multi-tenancy.**  Campaigns are *announced* onto a standing broker
(``announce`` / ``conclude`` / ``withdraw`` ops, all journaled).  The
ops ``put``, ``take`` and ``push_result`` name a campaign id, never a
queue, and act on that campaign's record alone, so one tenant can never
drain or poison another's state; ``withdraw`` drops the record and its
leases whole, and an op on a campaign the broker does not know creates
nothing.  Workers subscribe to the *broker*, not a campaign:
``take_any`` leases runs across every running campaign under
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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from itertools import count
from typing import Any, Callable, Mapping

from repro.core.brokerstate import BROKER_PROTOCOL, DRR_QUANTUM, BrokerState
from repro.core.engine import MODEL_SOURCE_ROOT, EnvSpec, model_source_digest
from repro.core.journal import Journal, JournalWarning
from repro.core.results import SimulationRecord
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.core.transport import (
    WORKER_CRASH_EXIT,
    WORKER_REJECTED_EXIT,
    ChunkTask,
    FrameConnectionError,
    LaneRun,
    TransportError,
    WorkerTransport,
    _close_listener,
    _connect_with_retry,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = [
    "BROKER_PROTOCOL",
    "DRR_QUANTUM",
    "BrokerClient",
    "BrokerUnavailableError",
    "EmbeddedBroker",
    "QueueTransport",
    "serve_queue_worker",
]

#: Sequence for campaign ids minted by :meth:`QueueTransport.start`.
_CAMPAIGN_SEQ = count()

#: Seconds a :class:`BrokerClient` waits for a reply before it treats
#: the broker as unavailable.  Far above the longest hold any op asks
#: for (``take``/``take_any`` send a ``timeout`` of at most 0.4 s), so
#: only a listener that accepted but stopped answering reaches it.
REPLY_TIMEOUT_S = 30.0


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


# ----------------------------------------------------------------------
# the broker: a socket shell around the state machine
# ----------------------------------------------------------------------
class EmbeddedBroker:
    """Dependency-free TCP broker serving campaigns to a worker fleet.

    One broker serves **any number of concurrent campaigns**; every rule
    and all state live in one :class:`~repro.core.brokerstate.BrokerState`.
    This shell keeps the listener, one thread per connection, the
    journal and one :class:`threading.Condition`: it holds the condition
    around every state-machine call, reads the clock once per attempt,
    and after each call that answered compacts the journal when due and
    notifies once.
    The broker is cheap enough to embed in the coordinator process (what
    ``ddt-explore campaign --transport queue`` does without
    ``--broker``) or to run standalone via ``ddt-explore broker`` as a
    shared cluster service.

    Parameters
    ----------
    bind:
        ``"host:port"`` or ``(host, port)``; port ``0`` picks an
        ephemeral port (read it back from :attr:`address`).  Bound in
        the constructor so the address is known before anything runs.
    heartbeat_ttl, quarantine_after:
        Those of the :class:`~repro.core.brokerstate.BrokerState`.
    journal:
        ``None`` (default) keeps all state in memory.  A directory path
        turns on durability: every entry the state machine commits is
        appended to a :class:`~repro.core.journal.Journal` write-ahead
        log *before* it is applied, and on construction the broker
        replays the directory's snapshot+log, requeues any journaled
        leases and unacknowledged deliveries at the queue front, and
        compacts -- a restart on the same directory resumes every
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
        self._state = BrokerState(
            heartbeat_ttl=heartbeat_ttl, quarantine_after=quarantine_after
        )
        self._listener = socket.create_server(
            parse_address(bind), reuse_port=False, backlog=32
        )
        self._cond = threading.Condition()
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
        if snapshot is not None:
            self._state.restore(snapshot)
        for entry in entries:
            try:
                self._state.reduce(entry)
            except Exception as exc:  # a damaged entry ends the replay
                warnings.warn(
                    f"journal replay stopped on {entry!r}: {exc!r}",
                    JournalWarning,
                    stacklevel=2,
                )
                break
        # From here on every committed entry is journaled first.
        self._state.record = self._journal.append
        # The previous broker died holding leases / undelivered acks:
        # hand every such item back to its queue front so the
        # (re-connecting) fleet and coordinators get it again.
        self._state.recover()
        self._journal.compact(self._state.snapshot())

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
                self._journal.compact(self._state.snapshot())
            self._journal.close()

    def drop_announcement(self) -> None:
        """Withdraw every campaign announcement (journaled).

        The standalone broker's signal handlers call this before
        :meth:`close`, so a worker launched after a *deliberate*
        shutdown waits for the next campaign instead of reading a stale
        one from the journal.
        """
        with self._cond:
            campaigns = list(self._state.campaigns)
        for cid in campaigns:
            self._serve({"type": "cmd", "op": "withdraw", "campaign": cid}, None)

    def __enter__(self) -> "EmbeddedBroker":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # threads: accept, sweep, one per connection
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
        interval = max(0.02, min(0.25, self._state.heartbeat_ttl / 5.0))
        with self._cond:
            while not self._closed:
                self._state.expire(time.monotonic())
                self._settle_locked()
                # close() notifies the condition, so shutdown never
                # waits out the interval.
                self._cond.wait_for(lambda: self._closed, timeout=interval)

    def _serve_connection(self, conn: socket.socket) -> None:
        with self._cond:
            serving = not self._closed
            if serving:
                self._conns.add(conn)
        try:
            while serving and (message := recv_frame(conn)) is not None:
                reply = self._serve(message, conn)
                if message.get("op") == "status" and reply["ok"]:
                    reply["status"].update(
                        uptime_s=round(time.monotonic() - self._started_at, 3),
                        journal=self._journal.position if self._journal else None,
                    )
                send_frame(conn, {"type": "reply", **reply})
        except (OSError, TransportError):
            pass
        finally:
            with self._cond:
                self._conns.discard(conn)
                if not self._closed:
                    self._state.connection_lost(conn)
                    self._settle_locked()
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # the one wait loop
    # ------------------------------------------------------------------
    def _serve(self, message: Mapping[str, Any], conn: Any) -> dict[str, Any]:
        """Answer one frame through the state machine.

        The one wait loop ``take`` and ``take_any`` share: while the
        state machine answers "not yet", the op waits for a notify (any
        other call may have changed the state) or for its ``timeout``,
        and is asked again -- with ``timeout`` 0 once that has passed,
        so it answers.
        """
        deadline = None
        with self._cond:
            while not self._closed:
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    message = {**message, "timeout": 0.0}
                reply = self._state.handle(message, conn, now)
                if reply is not None:
                    self._settle_locked()
                    return reply
                if deadline is None:
                    deadline = now + message["timeout"]
                self._cond.wait(min(deadline - now, threading.TIMEOUT_MAX))
        return {"ok": False, "error": "broker is closed"}

    def _settle_locked(self) -> None:
        """After each state-machine call: compact the journal when it is
        due, then wake every waiting op to look again."""
        if self._journal is not None and self._journal.due_for_compaction:
            self._journal.compact(self._state.snapshot())
        self._cond.notify_all()


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
    puts each node's **lane runs** on it in one call and takes its
    result frames -- up to :attr:`RESULTS_PER_TAKE` per round-trip,
    batch-acked on the next take.  Every op names the campaign id.
    Workers lease one run at a time at their own (capacity-weighted)
    pace, so the fleet is **elastic** -- workers may join, leave and
    rejoin mid-campaign; the only coordinator-visible effect is
    throughput.  A result ends its run's lease, so a crashed worker's
    leases requeue only runs it never finished.

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
        priority`` runs per rotation visit, so a priority-2 campaign
        leases twice the runs of a priority-1 neighbour while both have
        work queued.  Must be a finite number > 0; 1.0 (the default)
        shares equally.

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
        if not 0 < priority < float("inf"):
            raise ValueError("priority must be a finite number > 0")
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
        #: lane runs handed back to the queue after a presumed crash.
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
    #: to this many finished runs (each still individually acked).
    RESULTS_PER_TAKE = 32

    def submit_chunk(self, token: Any, chunk: ChunkTask) -> None:
        """Put every lane run of one node on the campaign's queue.

        One ``put`` carries them all; the broker queues, leases and
        requeues each run on its own.
        """
        if self._closed:
            raise TransportError("transport is closed")
        if self._client is None:
            raise TransportError("transport is not started")
        runs = [{"token": run_token, "run": run} for run_token, run in chunk.entries]
        reply = self._client.call("put", campaign=self._campaign_id, runs=runs)
        if not reply.get("ok"):
            raise TransportError(str(reply.get("error")))
        self._outstanding.update(chunk.tokens)

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
                self._check_starvation(reply.get("fleet"), time.monotonic())
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

    def _check_starvation(self, fleet: Mapping[str, Any] | None, now: float) -> None:
        """Fail the run after ``worker_timeout`` of *observed* starvation.

        ``now`` is the time of the observation.  The clock arms on the
        first empty-fleet observation and is disarmed by any live worker
        or survived outage -- it never inherits wall time from before
        the observation (the old behaviour could fire instantly after a
        long broker-outage backoff, misattributing the outage to the
        fleet).
        """
        if fleet is not None and fleet.get("live"):
            self._starved_since = None  # _absorb_fleet disarmed it too
            return
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
#: campaign id -> this process's environment for the campaign's runs.
_ENVS: dict[str, SimulationEnvironment] = {}


def _simulate(campaign: str, spec: EnvSpec, run: LaneRun) -> SimulationRecord:
    """The queue worker's one executor, inline (capacity 1) or in a pool
    process (capacity > 1).

    A pool shared across campaigns cannot be initialised for one
    :class:`~repro.core.engine.EnvSpec` up front, so each process builds
    one environment per campaign on first use and keeps it: interleaved
    runs of different tenants reuse their own hydrated traces and never
    share state.
    """
    env = _ENVS.get(campaign)
    if env is None:
        env = _ENVS[campaign] = spec.build()
    return run_simulation(run.app_cls, run.config, run.lanes, env)


def _push_result(
    client: BrokerClient,
    campaign: str,
    worker_id: str,
    token: Any,
    simulate: Callable[[], SimulationRecord],
) -> None:
    """Push the record ``simulate()`` returns, or push its error and
    re-raise it."""
    try:
        record = simulate()
    except Exception as exc:
        payload: dict[str, Any] = {"error": repr(exc), "meta": {}}
        client.call(
            "push_result", campaign=campaign, token=token, payload=payload,
            worker=worker_id,
        )
        raise
    payload = {"record": record, "meta": {"wall": record.wall_time_s}}
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
    is one lane run and names the campaign it belongs to.  Per campaign,
    the worker lazily hydrates a
    :class:`~repro.core.simulate.SimulationEnvironment` from the
    announced :class:`~repro.core.engine.EnvSpec` and pushes each result
    to the campaign it was leased from, so serving two tenants at once
    never mixes their state.  The worker exits once it has observed at
    least one campaign and the broker reports zero still running.

    A worker with ``capacity > 1`` executes its leased runs on a local
    :class:`~concurrent.futures.ProcessPoolExecutor` of that many
    processes and leases another run whenever fewer than ``capacity``
    are in flight.  Every capacity runs through the one executor
    :func:`_simulate`, which keeps one environment per campaign per
    process, so interleaved runs from different campaigns still reuse
    hydrated traces.

    A campaign announced by another build -- its spec's
    ``model_digest`` is not this worker's
    :func:`~repro.core.engine.model_source_digest` -- is refused before
    any of its runs is simulated: the worker says goodbye (its leases
    requeue, no crash counted), prints both digests and returns
    :data:`~repro.core.transport.WORKER_REJECTED_EXIT`.

    The worker keeps no records of its own: every leased run is
    simulated, and the coordinator's
    :class:`~repro.core.engine.SimulationCache` is the only record store.
    A worker that crashes loses at most its leased runs, which the
    broker requeues.

    ``fail_after=N`` is the fault-injection hook: hard-exit
    (:data:`~repro.core.transport.WORKER_CRASH_EXIT`, no goodbye) upon
    **leasing** the N-th lane run -- the lease is provably held when the
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
    rejected or quarantined the id or the worker refused a campaign of
    another build.  Connection failures raise
    :class:`~repro.core.transport.TransportError` (the CLI maps them to
    a non-zero exit).
    """
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
    # The announced spec of each campaign served, fetched on its first
    # lease and refused unless its model digest is this worker's.
    specs: dict[str, EnvSpec] = {}
    digest = model_source_digest(MODEL_SOURCE_ROOT)
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
            # No initializer: pool processes build one environment per
            # campaign on first use (``_simulate``), so a shared pool
            # serves interleaved tenants without rebuilds.
            pool = ProcessPoolExecutor(max_workers=capacity)

        sent = 0
        taken = 0
        inflight: dict[Any, "tuple[str, Any]"] = {}  # future -> (cid, token)
        last_beat = time.monotonic()
        # Workers may be launched before any campaign is submitted to the
        # standing broker, so running out of work means "done" only once
        # a campaign has been observed.  Until then the worker waits in
        # ``take_any``: it blocks in the broker, so the first run put is
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
                spec = specs.get(cid)
                if spec is None:
                    info = client.call("campaigns").get("campaigns", {}).get(cid)
                    if info is None:
                        # Withdrawn between the lease and this lookup; the
                        # withdrawal already stripped the lease broker-side.
                        continue
                    spec = info["spec"]
                    theirs = getattr(spec, "model_digest", None)
                    if theirs != digest:
                        # Records of another model must never reach the
                        # coordinator: hand the lease back (a goodbye
                        # counts no crash) and leave.
                        client.call("goodbye", worker=worker_id)
                        emit(
                            f"worker {worker_id}: refused campaign {cid}: it "
                            f"runs model {theirs}, this worker runs model {digest}"
                        )
                        return WORKER_REJECTED_EXIT
                    specs[cid] = spec
                    emit(
                        f"worker {worker_id}: serving campaign {cid} from "
                        f"{host}:{port} (capacity {capacity})"
                    )
                taken += 1
                if fail_after is not None and taken >= fail_after:
                    # The N-th run is provably leased when the crash
                    # happens, so the broker's requeue is exercised.
                    emit(f"worker {worker_id}: injected crash leasing run {taken}")
                    os._exit(WORKER_CRASH_EXIT)
                if pool is None:
                    # capacity 1: simulate inline; the push ends the
                    # lease (and re-arms the TTL).
                    _push_result(
                        client, cid, worker_id, item["token"],
                        lambda: _simulate(cid, spec, item["run"]),
                    )
                    sent += 1
                    break
                future = pool.submit(_simulate, cid, spec, item["run"])
                inflight[future] = (cid, item["token"])

            if pool is not None and inflight:
                done, _ = wait(
                    list(inflight), timeout=0.2, return_when=FIRST_COMPLETED
                )
                for future in done:
                    cid, token = inflight.pop(future)
                    _push_result(client, cid, worker_id, token, future.result)
                    sent += 1

            if running == 0 and item is None and not inflight:
                if observed:
                    client.call("goodbye", worker=worker_id)
                    emit(f"worker {worker_id}: campaigns done after {sent} runs")
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
        for cid in specs:  # inline environments die with their worker
            _ENVS.pop(cid, None)
