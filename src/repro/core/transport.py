"""Pluggable worker transports for the exploration engine.

PR 3 made every schedulable unit of a campaign a serialisable point
list -- a :class:`~repro.core.taskgraph.TaskNode` is ``(application,
config label, combo label)`` tuples plus a parent-side continuation.
This module ships those points to workers through a swappable
**transport** instead of hard-wiring the engine to one local process
pool.

Since PR 7 the unit of dispatch is a **chunk**: an ordered block of
points (:class:`ChunkTask`) that travels as one frame, is executed
against one hydrated worker environment, and comes back as one batch
result frame.  Per-point dispatch paid one pickle/IPC round-trip per
millisecond-scale simulation -- the "dispatch tax" that made five PRs
of distribution infrastructure slower than serial on the local path.
Chunking amortises the round-trip across the block; the per-point
``submit``/``next_result`` helpers remain as thin wrappers (a submit is
a singleton chunk) so existing callers and tests keep working.

* :class:`LocalPoolTransport` -- one
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers build a
  :class:`~repro.core.engine.EnvSpec` environment once via the pool
  initializer; a chunk is one pool task.  This is what ``workers=N``
  still means everywhere.
* :class:`SocketTransport` -- a lightweight TCP **coordinator**.  Worker
  processes started as ``ddt-explore worker --connect HOST:PORT``
  (possibly on other machines sharing the trace-store directory) dial
  in, receive the pickled :class:`~repro.core.engine.EnvSpec` once, then
  stream chunk frames in and batched result frames out.  Results carry
  the per-point submission tokens, so the task graph slots them by
  point index exactly as it does for the local pool -- distribution
  changes *where* a point runs, never what it returns (asserted on
  ``content_key()`` by ``tests/test_transport.py`` and the randomized
  chunk parity sweep in ``tests/test_parity_random.py``).

**Capability negotiation** (new in protocol version 2): a worker's
hello advertises ``caps`` (:data:`CAP_CHUNKS` when it understands
``chunk``/``results`` frames); the coordinator accepts protocol
versions 1 and 2 and transparently peels chunks into per-point ``task``
frames for a legacy version-1 worker.  A third-party transport that
still *implements* only the per-point contract runs under
:class:`PointwiseAdapter` (the task graph wraps it automatically).

The socket coordinator couples each worker's lifetime to one TCP
connection it holds.  For an elastic, broker-decoupled fleet -- workers
joining, leaving and rejoining mid-campaign, with heterogeneous
capacities -- see :class:`~repro.core.broker.QueueTransport`, which
implements this same :class:`WorkerTransport` interface against an
embedded queue broker (chunks become broker leases there).

Campaign-level fault tolerance lives in the coordinator:

* a worker that disconnects mid-flight has its unresolved points
  **requeued at point granularity** -- completed points of a partially
  delivered chunk are never re-run, so no duplicate ``content_key()``
  can be produced;
* a worker id that crashes ``quarantine_after`` times (default 2) is
  **quarantined** -- its reconnection attempts are rejected and the id
  is reported on :attr:`~repro.core.campaign.CampaignResult.quarantined`;
* if every worker is gone while work is pending, the coordinator waits
  ``worker_timeout`` seconds for a replacement before failing the run.

The wire format is length-prefixed pickle frames.  Pickle is the point
-- application classes, :class:`EnvSpec` and records cross the wire by
reference/value with zero schema code -- but it also means the
coordinator must only ever be exposed to **trusted workers on a trusted
network** (bind to localhost or a private interface, as the paper-style
exploration cluster would).
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.apps.base import NetworkApplication
from repro.core.results import SimulationRecord
from repro.core.simulate import run_simulation
from repro.net.config import NetworkConfig

__all__ = [
    "CAP_CHUNKS",
    "ChunkTask",
    "FrameConnectionError",
    "LocalPoolTransport",
    "PROTOCOL_VERSION",
    "PointwiseAdapter",
    "SocketTransport",
    "TransportError",
    "WorkerTransport",
    "parse_address",
    "serve_worker",
]

#: What a transport ships per point: ``(application class, trace name,
#: application parameters, DDT assignment)``.  The config is rebuilt on
#: the worker from its picklable parts, mirroring the pool task format.
PointTask = tuple[type[NetworkApplication], str, dict[str, Any], dict[str, str]]

#: Wire protocol version spoken by this build.  Version 2 added chunked
#: dispatch (``chunk`` task frames, batched ``results`` frames) and the
#: ``caps`` capability field in hello/init frames.  Version-1 peers are
#: still interoperable: the coordinator feeds them per-point ``task``
#: frames and the worker accepts a version-1 init.
PROTOCOL_VERSION = 2

#: Protocol versions this build negotiates with (oldest first).
SUPPORTED_PROTOCOLS = (1, 2)

#: Capability string advertised in a hello's ``caps`` list by peers that
#: understand ``chunk`` frames and batched ``results`` frames.  A hello
#: without it (any version-1 worker) gets the legacy per-point frames.
CAP_CHUNKS = "chunks"

#: Exit code of a worker whose hello was rejected (quarantined id).
WORKER_REJECTED_EXIT = 3
#: Exit code of a worker that never reached (or lost) its coordinator
#: or broker: the CLI prints the last error and exits with this.
WORKER_CONNECT_EXIT = 4
#: Exit code of a ``--fail-after`` worker's injected crash.
WORKER_CRASH_EXIT = 70

_FRAME_HEADER = struct.Struct("<I")


class TransportError(RuntimeError):
    """A transport could not deliver work or results."""


class FrameConnectionError(TransportError):
    """The peer connection died mid-frame (as opposed to a protocol
    violation on an otherwise healthy connection).  The broker client's
    reconnect loop treats this -- but not malformed frames -- as a
    retriable outage."""


# ----------------------------------------------------------------------
# frame helpers (length-prefixed pickle)
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Send one pickled, length-prefixed protocol frame."""
    blob = pickle.dumps(dict(message), protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_FRAME_HEADER.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, size: int) -> bytes | None:
    """Read exactly ``size`` bytes; ``None`` on EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise FrameConnectionError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Receive one frame; ``None`` on a clean EOF between frames."""
    header = _recv_exact(sock, _FRAME_HEADER.size)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    blob = _recv_exact(sock, length)
    if blob is None:
        raise FrameConnectionError("connection closed mid-frame")
    try:
        message = pickle.loads(blob)
    except Exception as exc:  # unpicklable frame: treat as protocol error
        raise TransportError(f"bad protocol frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise TransportError(f"malformed protocol frame: {message!r}")
    return message


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """Normalise ``"host:port"`` (or a ``(host, port)`` pair) to a tuple."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise TransportError(f"expected HOST:PORT, got {address!r}")
    return host or "127.0.0.1", int(port)


# ----------------------------------------------------------------------
# the unit of dispatch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChunkTask:
    """An ordered block of points dispatched (and leased) as one unit.

    Every entry is ``(token, PointTask)``; the tokens inside a chunk
    stay individually addressable -- results, requeues and fault
    injection all happen at **point** granularity, only the transport
    round-trip is amortised across the block.
    """

    entries: tuple[tuple[Any, PointTask], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("ChunkTask needs at least one point")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def tokens(self) -> tuple[Any, ...]:
        """The per-point tokens, in dispatch order."""
        return tuple(token for token, _task in self.entries)

    @classmethod
    def single(cls, token: Any, task: PointTask) -> "ChunkTask":
        """Wrap one point as a singleton chunk (the legacy unit)."""
        return cls(((token, task),))

    @classmethod
    def of(cls, entries: "Iterable[tuple[Any, PointTask]]") -> "ChunkTask":
        """Build a chunk from an iterable of ``(token, task)`` pairs."""
        return cls(tuple(entries))


# ----------------------------------------------------------------------
# transport interface
# ----------------------------------------------------------------------
class WorkerTransport:
    """Where the task graph's cache-miss points actually execute.

    The chunked contract the graph relies on: every point token inside
    every :meth:`submit_chunk`\\ ed chunk is eventually returned exactly
    once across :meth:`next_results` batches (or an exception is
    raised), and the record of a token is a pure function of its task
    -- which worker ran it, in what chunk, in what order, after how
    many retries, is invisible in the result.

    :meth:`submit` and :meth:`next_result` are the **legacy per-point
    helpers**, implemented here on top of the chunked primitives: a
    submit is a singleton chunk, a next_result pops from a buffered
    batch.  Subclasses implement :meth:`submit_chunk` and
    :meth:`next_results`; a transport that predates the chunk contract
    (overriding only the per-point pair) still runs -- the task graph
    wraps it in :class:`PointwiseAdapter` automatically.
    """

    #: Worker ids barred after repeated crashes (informational; the
    #: socket and queue transports populate it).
    quarantined: list[str]

    #: Broker/coordinator outages this transport survived by
    #: reconnecting (informational; only the queue transport, whose
    #: broker may restart mid-campaign, ever increments it).
    outages: int

    #: Points a worker answered from its local record store instead of
    #: simulating (tier-one cache hits; the socket and queue transports
    #: count them from the result provenance workers attach).
    worker_cache_hits: int

    def __init__(self) -> None:
        self.quarantined = []
        self.outages = 0
        self.worker_cache_hits = 0
        #: tokens whose record was served from a worker-local store,
        #: pending collection by :meth:`was_cached`.
        self.cached_tokens: set[Any] = set()
        self._ready: deque[tuple[Any, SimulationRecord]] = deque()

    def start(self, spec: Any) -> None:
        """Begin serving with worker environments built from ``spec``."""
        raise NotImplementedError

    def submit_chunk(self, token: Any, chunk: ChunkTask) -> None:
        """Queue one block of points, identified by ``token``."""
        raise NotImplementedError

    def next_results(self) -> list[tuple[Any, SimulationRecord]]:
        """Block until at least one point resolves; return the batch.

        The batch is a non-empty list of ``(token, record)`` pairs --
        typically one completed chunk, but transports are free to
        coalesce or split batches as long as every token shows up
        exactly once overall.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release workers and sockets/pools (idempotent)."""
        raise NotImplementedError

    # -- legacy per-point surface (derived) ----------------------------
    def submit(self, token: Any, task: PointTask) -> None:
        """Queue one point for execution (a singleton chunk)."""
        self.submit_chunk(token, ChunkTask.single(token, task))

    def next_result(self) -> tuple[Any, SimulationRecord]:
        """Block until one submitted point resolves; ``(token, record)``.

        Buffers the remainder of the underlying batch for the next
        call, so per-point consumers see the pre-chunk behaviour.
        """
        while not self._ready:
            self._ready.extend(self.next_results())
        return self._ready.popleft()

    def was_cached(self, token: Any) -> bool:
        """Whether ``token``'s record came from a worker-local store.

        Consuming: the flag is popped, so asking once per delivered
        result (what the task graph does) never leaks tokens.
        """
        if token in self.cached_tokens:
            self.cached_tokens.discard(token)
            return True
        return False

    # ------------------------------------------------------------------
    def worker_stats(self) -> dict[str, dict[str, Any]]:
        """Measured per-worker dispatch records, ``{}`` by default.

        Transports that track heterogeneous worker capacities (the
        queue transport) report ``{worker: {capacity, points,
        throughput, quota, ...}}`` here; the campaign persists it in
        the manifest's ``node_costs`` fleet records.
        """
        return {}

    def seed_fleet(self, stats: Mapping[str, Mapping[str, Any]]) -> None:
        """Pre-load per-worker records from a previous campaign (no-op).

        The queue transport overrides this to start returning workers
        at their previously measured quota instead of their advertised
        capacity.
        """


class PointwiseAdapter(WorkerTransport):
    """Run a legacy per-point transport under the chunked contract.

    Any third-party transport written against the pre-chunk
    ``submit``/``next_result`` surface keeps working: a chunk is peeled
    into per-point submits and every batch is one result.  The adapter
    holds no state of its own -- observability attributes
    (``quarantined``, ``outages``, ``crashes``, ...) resolve to the
    wrapped transport, so drills and manifests see the real numbers.

    The task graph applies this automatically to any transport that
    does not override :meth:`WorkerTransport.submit_chunk`.
    """

    def __init__(self, inner: WorkerTransport) -> None:
        # Deliberately no super().__init__(): quarantined/outages and
        # every other attribute fall through to the wrapped transport.
        object.__setattr__(self, "_inner", inner)

    def start(self, spec: Any) -> None:
        self._inner.start(spec)

    def submit_chunk(self, token: Any, chunk: ChunkTask) -> None:
        for point_token, task in chunk.entries:
            self._inner.submit(point_token, task)

    def next_results(self) -> list[tuple[Any, SimulationRecord]]:
        return [self._inner.next_result()]

    def submit(self, token: Any, task: PointTask) -> None:
        self._inner.submit(token, task)

    def next_result(self) -> tuple[Any, SimulationRecord]:
        return self._inner.next_result()

    def close(self) -> None:
        self._inner.close()

    def worker_stats(self) -> dict[str, dict[str, Any]]:
        return self._inner.worker_stats()

    def seed_fleet(self, stats: Mapping[str, Mapping[str, Any]]) -> None:
        self._inner.seed_fleet(stats)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def ensure_chunked(transport: WorkerTransport) -> WorkerTransport:
    """Return ``transport`` speaking the chunked contract.

    A transport that never overrode :meth:`WorkerTransport.submit_chunk`
    predates the chunk protocol; wrap it in :class:`PointwiseAdapter` so
    the task graph can drive everything through one code path.
    """
    if type(transport).submit_chunk is WorkerTransport.submit_chunk:
        return PointwiseAdapter(transport)
    return transport


class LocalPoolTransport(WorkerTransport):
    """The default transport: a local :class:`ProcessPoolExecutor`.

    The engine's pre-transport behaviour with chunking on top -- one
    pool whose initializer builds a single
    :class:`~repro.core.simulate.SimulationEnvironment` per worker
    process from the :class:`~repro.core.engine.EnvSpec`, and one pool
    task per **chunk** so a block of points pays one submit/pickle
    round-trip instead of one per point.
    """

    def __init__(self, workers: int) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("LocalPoolTransport needs at least one worker")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._futures: set[Any] = set()

    def start(self, spec: Any) -> None:
        """Create the worker pool (environments built lazily per worker)."""
        from repro.core.engine import _init_worker

        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(spec,),
            )

    def submit_chunk(self, token: Any, chunk: ChunkTask) -> None:
        """Schedule one block of points as a single pool task."""
        from repro.core.engine import _run_chunk

        if self._pool is None:
            raise TransportError("transport is not started")
        tasks = [
            (point_token, app_cls, trace_name, app_params, assignment)
            for point_token, (
                app_cls,
                trace_name,
                app_params,
                assignment,
            ) in chunk.entries
        ]
        self._futures.add(self._pool.submit(_run_chunk, tasks))

    def next_results(self) -> list[tuple[Any, SimulationRecord]]:
        """Pop every finished chunk, waiting on the pool as needed."""
        if not self._futures:
            raise TransportError("no outstanding work")
        done, _ = wait(self._futures, return_when=FIRST_COMPLETED)
        results: list[tuple[Any, SimulationRecord]] = []
        for future in done:
            self._futures.discard(future)
            results.extend(future.result())
        return results

    def close(self) -> None:
        """Shut the pool down, waiting for workers to exit."""
        pool, self._pool = self._pool, None
        self._futures.clear()
        self._ready.clear()
        if pool is not None:
            pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# socket transport: TCP coordinator + remote workers
# ----------------------------------------------------------------------
class _Remote:
    """Coordinator-side state of one connected worker."""

    def __init__(
        self,
        worker_id: str,
        sock: socket.socket,
        caps: "frozenset[str]" = frozenset(),
    ) -> None:
        self.id = worker_id
        self.sock = sock
        #: negotiated capabilities from the worker's hello.
        self.caps = caps
        #: point token -> point frame, for requeueing on connection loss.
        self.outstanding: dict[Any, dict[str, Any]] = {}
        #: dispatch units (chunk or task frames) currently in flight --
        #: what ``max_inflight`` bounds.
        self.units = 0
        self.closing = False
        self.retired = False


class SocketTransport(WorkerTransport):
    """TCP coordinator distributing point chunks to connecting workers.

    Parameters
    ----------
    bind:
        ``"host:port"`` or ``(host, port)`` to listen on; port ``0``
        picks an ephemeral port (read it back from :attr:`address`).
        The listening socket is bound immediately so workers can be
        launched before the campaign starts running.
    worker_timeout:
        Seconds to wait with work pending but **zero** connected workers
        before failing the run (covers both "nobody ever connected" and
        "everybody crashed and nobody came back").
    quarantine_after:
        Crash count at which a worker id is quarantined; later hellos
        from that id are rejected.
    max_inflight:
        Dispatch units (chunks, or single task frames for a legacy
        worker) kept in flight per worker; 2 (default) overlaps one
        computation with one frame in transit without letting a slow
        worker hoard the queue.
    """

    def __init__(
        self,
        bind: "str | tuple[str, int]" = ("127.0.0.1", 0),
        *,
        worker_timeout: float = 60.0,
        quarantine_after: int = 2,
        max_inflight: int = 2,
    ) -> None:
        super().__init__()
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.worker_timeout = worker_timeout
        self.quarantine_after = quarantine_after
        self.max_inflight = max_inflight
        self._listener = socket.create_server(
            parse_address(bind), reuse_port=False, backlog=16
        )
        self._lock = threading.Lock()
        #: pending chunks: ``(chunk token, [point frame, ...])``.
        self._pending: deque[tuple[Any, list[dict[str, Any]]]] = deque()
        self._remotes: list[_Remote] = []
        self._events: "queue.Queue[tuple[Any, ...]]" = queue.Queue()
        self._init_frame: dict[str, Any] | None = None
        self._accept_thread: threading.Thread | None = None
        self._closed = False
        #: when the coordinator first *observed* starvation (work
        #: pending, no workers); ``None`` while not starved.
        self._starved_since: float | None = None
        #: crash counts per worker id (drives quarantine).
        self.crashes: dict[str, int] = {}
        #: distinct worker ids that ever registered.
        self.workers_seen: set[str] = set()
        #: points handed back to the queue after a connection loss.
        self.requeues = 0
        #: results successfully received from workers.
        self.results_received = 0

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound ``host:port`` workers should ``--connect`` to."""
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    # ------------------------------------------------------------------
    def start(self, spec: Any) -> None:
        """Store the environment spec and begin accepting workers."""
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            self._init_frame = {
                "type": "init",
                "proto": PROTOCOL_VERSION,
                "caps": [CAP_CHUNKS],
                "spec": spec,
            }
            if self._accept_thread is None:
                # The starvation clock arms on the first starved
                # *observation*, not at construction or start -- setup
                # time (or a ridden-out broker outage, for the queue
                # transport) must not eat worker_timeout.
                self._starved_since = None
                self._accept_thread = threading.Thread(
                    target=self._accept_loop, name="ddt-coordinator-accept", daemon=True
                )
                self._accept_thread.start()

    def submit_chunk(self, token: Any, chunk: ChunkTask) -> None:
        """Queue one block; dispatched to the least-loaded live worker."""
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
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            self._pending.append((token, points))
            self._dispatch_locked()

    def next_results(self) -> list[tuple[Any, SimulationRecord]]:
        """Block for the next batch, requeueing across worker crashes."""
        while True:
            try:
                event = self._events.get(timeout=0.2)
            except queue.Empty:
                self._check_starvation()
                continue
            kind = event[0]
            if kind == "results":
                return event[1]
            if kind == "error":
                raise TransportError(event[1])
            # "wake": a worker joined or left; re-check starvation.
            self._check_starvation()

    def close(self) -> None:
        """Reject new connections, shut connected workers down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            remotes = list(self._remotes)
            self._remotes.clear()
            self._pending.clear()
        _close_listener(self._listener)
        for remote in remotes:
            remote.closing = True
            try:
                send_frame(remote.sock, {"type": "shutdown"})
            except OSError:
                pass
            try:
                remote.sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    def _check_starvation(self) -> None:
        now = time.monotonic()
        with self._lock:
            work_pending = bool(self._pending) or any(
                remote.outstanding for remote in self._remotes
            )
            starved = work_pending and not self._remotes
            if not starved:
                self._starved_since = None
                return
            if self._starved_since is None:
                # First starved observation: arm the clock.  Wall-clock
                # time spent elsewhere (e.g. a take backoff riding out a
                # broker outage) never counts toward worker_timeout.
                self._starved_since = now
                return
            waited = now - self._starved_since
        if waited > self.worker_timeout:
            raise TransportError(
                f"no workers connected for {self.worker_timeout:.0f}s with "
                "work pending (launch `ddt-explore worker --connect "
                f"{self.address}`)"
            )

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        remote: _Remote | None = None
        try:
            conn.settimeout(10.0)
            hello = recv_frame(conn)
            if (
                hello is None
                or hello.get("type") != "hello"
                or hello.get("proto") not in SUPPORTED_PROTOCOLS
            ):
                conn.close()
                return
            worker_id = str(hello.get("worker", "anonymous"))
            caps = frozenset(hello.get("caps") or ())
            conn.settimeout(None)
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                if worker_id in self.quarantined:
                    send_frame(
                        conn,
                        {"type": "reject", "reason": f"worker {worker_id!r} is quarantined"},
                    )
                    conn.close()
                    return
                assert self._init_frame is not None
                send_frame(conn, self._init_frame)
                remote = _Remote(worker_id, conn, caps)
                self._remotes.append(remote)
                self.workers_seen.add(worker_id)
                self._dispatch_locked()
            self._events.put(("wake",))
            self._reader_loop(remote)
        except (OSError, TransportError):
            pass
        finally:
            if remote is not None:
                with self._lock:
                    self._retire_locked(remote)
                self._events.put(("wake",))
            else:
                try:
                    conn.close()
                except OSError:
                    pass

    def _reader_loop(self, remote: _Remote) -> None:
        while True:
            message = recv_frame(remote.sock)
            if message is None:
                return  # EOF: _serve_connection's finally retires it
            kind = message.get("type")
            if kind in ("result", "results"):
                if kind == "result":
                    pairs = [(message["token"], message["record"])]
                else:
                    pairs = [(token, record) for token, record in message["results"]]
                # Provenance: tokens the worker answered from its local
                # record store instead of simulating (absent pre-store).
                cached = set(message.get("cached") or ())
                batch: list[tuple[Any, SimulationRecord]] = []
                with self._lock:
                    remote.units = max(0, remote.units - 1)
                    for token, record in pairs:
                        if remote.outstanding.pop(token, None) is not None:
                            self.results_received += 1
                            if token in cached:
                                self.worker_cache_hits += 1
                                self.cached_tokens.add(token)
                            batch.append((token, record))
                    self._dispatch_locked()
                if batch:
                    self._events.put(("results", batch))
            elif kind == "error":
                self._events.put(
                    ("error", f"worker {remote.id!r}: {message.get('error')}")
                )
                return

    def _dispatch_locked(self) -> None:
        """Hand pending chunks to the least-loaded live workers."""
        while self._pending:
            candidates = [
                remote
                for remote in self._remotes
                if not remote.retired and remote.units < self.max_inflight
            ]
            if not candidates:
                return
            remote = min(candidates, key=lambda r: r.units)
            chunk_token, points = self._pending.popleft()
            if CAP_CHUNKS in remote.caps:
                frame: dict[str, Any] = {
                    "type": "chunk",
                    "token": chunk_token,
                    "points": points,
                }
                for point in points:
                    remote.outstanding[point["token"]] = point
            else:
                # Legacy version-1 worker: peel one point off the chunk
                # and leave the remainder at the head of the queue.
                point, rest = points[0], points[1:]
                if rest:
                    self._pending.appendleft((chunk_token, rest))
                frame = {"type": "task", **point}
                remote.outstanding[point["token"]] = point
            remote.units += 1
            try:
                send_frame(remote.sock, frame)
            except OSError:
                # Dead socket: requeue and retire now; the reader thread's
                # retirement is a no-op thanks to the retired flag.
                self._retire_locked(remote)

    def _retire_locked(self, remote: _Remote) -> None:
        """Drop one worker, requeueing its in-flight points (lock held).

        Requeue happens at **point** granularity: points of a partially
        delivered chunk that already came back in a ``results`` frame
        were popped from ``outstanding`` and are not re-run.
        """
        if remote.retired:
            return
        remote.retired = True
        if remote in self._remotes:
            self._remotes.remove(remote)
        try:
            remote.sock.close()
        except OSError:
            pass
        if remote.closing or self._closed:
            return
        for point in reversed(list(remote.outstanding.values())):
            self._pending.appendleft((point["token"], [point]))
            self.requeues += 1
        remote.outstanding.clear()
        crashes = self.crashes.get(remote.id, 0) + 1
        self.crashes[remote.id] = crashes
        if crashes >= self.quarantine_after and remote.id not in self.quarantined:
            self.quarantined.append(remote.id)
        self._dispatch_locked()


# ----------------------------------------------------------------------
# worker side (what `ddt-explore worker` runs)
# ----------------------------------------------------------------------
def _close_listener(listener: socket.socket) -> None:
    """Close a listening socket, waking a thread blocked in ``accept()``.

    ``close()`` alone leaves another thread's ``accept()`` blocked until
    the next connection arrives; shutting the socket down first makes it
    return at once, so the owner's join never waits out its timeout.
    """
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not every platform lets a listener be shut down
    try:
        listener.close()
    except OSError:
        pass


def _connect_with_retry(
    address: tuple[str, int], retry_s: float, what: str = "coordinator"
) -> socket.socket:
    deadline = time.monotonic() + retry_s
    while True:
        try:
            sock = socket.create_connection(address, timeout=10.0)
            # The connect timeout must not linger: an idle worker (e.g.
            # waiting out another worker's long point, or a coordinator
            # busy pre-generating traces) would otherwise die on recv.
            sock.settimeout(None)
            return sock
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"could not reach {what} at {address[0]}:{address[1]} "
                    f"within {retry_s:.0f}s: {exc}"
                ) from exc
            time.sleep(0.2)


def _simulate_point(point: Mapping[str, Any], env: Any) -> SimulationRecord:
    config = NetworkConfig(point["trace"], point["params"])
    return run_simulation(point["app"], config, point["assignment"], env)


def serve_worker(
    address: "str | tuple[str, int]",
    worker_id: str | None = None,
    *,
    retry_s: float = 30.0,
    fail_after: int | None = None,
    local_cache: "str | os.PathLike[str] | None" = None,
    log: Callable[[str], None] | None = None,
) -> int:
    """Run one transport worker until the coordinator shuts it down.

    Connects (retrying up to ``retry_s`` seconds, so workers may be
    launched before the coordinator binds), sends a hello carrying
    ``worker_id`` and the :data:`CAP_CHUNKS` capability, hydrates a
    :class:`~repro.core.simulate.SimulationEnvironment` from the pickled
    :class:`~repro.core.engine.EnvSpec` (loading traces from the shared
    trace store when the spec names one), then simulates ``chunk`` (or
    legacy ``task``) frames until EOF or an explicit shutdown.  Each
    chunk is answered with one batched ``results`` frame.

    ``local_cache`` (or the spec's announced default) opens a
    persistent :class:`~repro.core.engine.WorkerRecordStore` there --
    tier one of the two-tier result cache.  Every point of a chunk is
    first looked up in the store; hits are answered from disk through
    the **same** batched ``results`` frame as simulated points (their
    tokens listed under the frame's ``cached`` key, so the coordinator
    can report worker-tier hits), and only the misses are simulated.
    The store is flushed after every chunk and before an injected
    crash, so a rejoining worker answers its already-completed points
    with zero resimulations.

    ``fail_after=N`` is the **fault-injection hook** and counts
    **simulated points**, never chunks (and never store-answered
    points, so a warm rejoined worker does not crash again on replayed
    work): the process hard-exits (:data:`WORKER_CRASH_EXIT`, no
    protocol goodbye) after simulating its N-th point.  If the N-th
    point lands mid-chunk, the finished prefix is flushed as a partial
    ``results`` frame *before* the exit, so the coordinator requeues
    only the genuinely unfinished points -- the partial-chunk crash
    path the requeue drills exercise.

    Returns a process exit code: ``0`` on a clean shutdown,
    :data:`WORKER_REJECTED_EXIT` when the coordinator rejected the hello
    (e.g. a quarantined id).
    """
    host, port = parse_address(address)
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    emit = log if log is not None else (lambda message: None)

    sock = _connect_with_retry((host, port), retry_s)
    try:
        send_frame(
            sock,
            {
                "type": "hello",
                "proto": PROTOCOL_VERSION,
                "worker": worker_id,
                "pid": os.getpid(),
                "caps": [CAP_CHUNKS],
            },
        )
        init = recv_frame(sock)
        if init is None:
            raise TransportError("coordinator hung up during handshake")
        if init.get("type") == "reject":
            emit(f"worker {worker_id}: rejected: {init.get('reason')}")
            return WORKER_REJECTED_EXIT
        if init.get("type") != "init" or init.get("proto") not in SUPPORTED_PROTOCOLS:
            raise TransportError(f"unexpected handshake frame: {init.get('type')!r}")
        spec = init["spec"]
        env = spec.build()
        store = None
        store_dir = (
            local_cache
            if local_cache is not None
            else getattr(spec, "local_cache", None)
        )
        if store_dir:
            from repro.core.engine import WorkerRecordStore

            store = WorkerRecordStore(store_dir, env)
        emit(f"worker {worker_id}: connected to {host}:{port}")

        sent = 0
        served = 0
        while True:
            message = recv_frame(sock)
            if message is None or message.get("type") == "shutdown":
                if store is not None:
                    store.flush()
                emit(
                    f"worker {worker_id}: shutdown after {sent} points"
                    + (f" ({served} from local store)" if served else "")
                )
                return 0
            kind = message.get("type")
            if kind == "task":
                points: list[Mapping[str, Any]] = [message]
            elif kind == "chunk":
                points = list(message.get("points") or ())
            else:
                continue
            results: list[tuple[Any, SimulationRecord]] = []
            cached_tokens: list[Any] = []

            def flush() -> None:
                # One reply per dispatch unit: a batched "results" frame
                # for a chunk, the legacy "result" frame for a task.
                # Store-answered points travel in the same frame as
                # simulated ones -- only the "cached" token list marks
                # their provenance, so requeue/dedup semantics never
                # depend on where a record came from.
                if kind == "chunk":
                    frame: dict[str, Any] = {
                        "type": "results",
                        "token": message["token"],
                        "results": results,
                    }
                    if cached_tokens:
                        frame["cached"] = list(cached_tokens)
                    send_frame(sock, frame)
                elif results:
                    token, record = results[0]
                    frame = {"type": "result", "token": token, "record": record}
                    if cached_tokens:
                        frame["cached"] = list(cached_tokens)
                    send_frame(sock, frame)

            for point in points:
                if store is not None:
                    record = store.get(point)
                    if record is not None:
                        results.append((point["token"], record))
                        cached_tokens.append(point["token"])
                        served += 1
                        continue
                try:
                    record = _simulate_point(point, env)
                except Exception as exc:
                    if kind == "chunk" and results:
                        flush()  # deliver the finished prefix before dying
                    send_frame(
                        sock,
                        {"type": "error", "token": point["token"], "error": repr(exc)},
                    )
                    raise
                if store is not None:
                    store.put(point, record)
                results.append((point["token"], record))
                sent += 1
                if fail_after is not None and sent >= fail_after:
                    if store is not None:
                        store.flush()  # completed work must survive the crash
                    flush()  # partial chunk: finished points still count
                    emit(f"worker {worker_id}: injected crash after {sent} points")
                    os._exit(WORKER_CRASH_EXIT)
            flush()
            if store is not None:
                store.flush()
    finally:
        try:
            sock.close()
        except OSError:
            pass
