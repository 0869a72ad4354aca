"""Worker transports for the exploration engine.

The unit of dispatch is a **lane run** (:class:`LaneRun`): one
application run per (node, configuration) that prices every DDT the
node's cache misses need (see :mod:`repro.core.taskgraph`).  One value
carries it on every hop -- the task graph builds it, a
:class:`ChunkTask` hands a node's lane runs to a transport in one call,
the broker queues it as ``{"token", "run"}``, and every executor is one
``run_simulation(run.app_cls, run.config, run.lanes, env)`` call.  A
transport dispatches, leases and returns each run on its own: a lane
run takes tens to hundreds of milliseconds, so one round-trip per run
costs little.  A transport only executes; nothing it measures carries
over to the next run.

Three transports implement :class:`WorkerTransport`:

* :class:`~repro.core.taskgraph.InProcessTransport` -- ``workers=0``:
  each :meth:`~WorkerTransport.next_results` call simulates the next
  queued run in the calling process, in the engine's own environment.
* :class:`LocalPoolTransport` -- one
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers build a
  :class:`~repro.core.engine.EnvSpec` environment once via the pool
  initializer; a lane run is one pool task.  This is what
  ``workers=N`` means everywhere.
* :class:`~repro.core.broker.QueueTransport` -- remote execution: lane
  runs become leases on an embedded queue broker that ``ddt-explore
  worker --connect-broker`` processes pull from, possibly on other
  machines sharing the trace-store directory (see
  :mod:`repro.core.broker`).

Results carry their per-run submission tokens, so the task graph slots
them by point index whichever transport ran them -- distribution
changes *where* a run happens, never what it returns (asserted on
``content_key()`` by the randomized parity sweeps in
``tests/test_parity_random.py``).

This module also holds the wire primitives the broker speaks:
length-prefixed pickle frames, address parsing, connect-with-retry and
the worker exit codes.  Pickle is the point -- application classes,
lane runs, :class:`EnvSpec` and records cross the wire with zero schema
code -- but it also means the broker must only ever be exposed to
**trusted workers on a trusted network**.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.apps.base import NetworkApplication
from repro.core.results import SimulationRecord
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.net.config import NetworkConfig

__all__ = [
    "ChunkTask",
    "FrameConnectionError",
    "LaneRun",
    "LocalPoolTransport",
    "TransportError",
    "WorkerTransport",
    "parse_address",
]

#: Exit code of a worker whose hello was rejected (quarantined id) or
#: that refused a campaign announced by another build.
WORKER_REJECTED_EXIT = 3
#: Exit code of a worker that never reached (or lost) its broker: the
#: CLI prints the last error and exits with this.
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
# the lane run, and one node's lane runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LaneRun:
    """One application run that prices every DDT of its lanes.

    ``lanes`` maps each dominant structure to the DDTs charged side by
    side (see :func:`~repro.core.taskgraph.lane_assignment`).  The
    configuration travels as its picklable parts and :attr:`config`
    rebuilds it wherever the run executes.
    """

    app_cls: type[NetworkApplication]
    trace_name: str
    app_params: dict[str, Any]
    lanes: dict[str, tuple[str, ...]]

    @property
    def config(self) -> NetworkConfig:
        """The run's network configuration."""
        return NetworkConfig(self.trace_name, self.app_params)


@dataclass(frozen=True)
class ChunkTask:
    """The lane runs of one node, handed to a transport in one call.

    Every entry is ``(token, LaneRun)``.  Each entry is dispatched,
    leased, requeued and returned on its own; the chunk only groups
    one node's submissions.
    """

    entries: tuple[tuple[Any, LaneRun], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("ChunkTask needs at least one lane run")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def tokens(self) -> tuple[Any, ...]:
        """The per-run tokens, in submission order."""
        return tuple(token for token, _run in self.entries)

    @classmethod
    def of(cls, entries: "Iterable[tuple[Any, LaneRun]]") -> "ChunkTask":
        """Build a chunk from an iterable of ``(token, run)`` pairs."""
        return cls(tuple(entries))


# ----------------------------------------------------------------------
# transport interface
# ----------------------------------------------------------------------
class WorkerTransport:
    """Where the task graph's lane runs actually execute.

    The contract the graph relies on: every token of every
    :meth:`submit_chunk`\\ ed chunk is eventually returned exactly once
    across :meth:`next_results` batches (or an exception is raised), and
    the record of a token is a pure function of its run -- which worker
    ran it, in what order, after how many retries, is invisible in the
    result.
    """

    #: Worker ids barred after repeated crashes (informational; the
    #: queue transport populates it).
    quarantined: list[str]

    #: Broker outages this transport survived by reconnecting
    #: (informational; only the queue transport, whose broker may
    #: restart mid-campaign, ever increments it).
    outages: int

    def __init__(self) -> None:
        self.quarantined = []
        self.outages = 0

    def start(self, spec: Any) -> None:
        """Begin serving with worker environments built from ``spec``."""
        raise NotImplementedError

    def submit_chunk(self, token: Any, chunk: ChunkTask) -> None:
        """Queue every lane run of one node (``token`` names the node
        for display only; each run carries its own token)."""
        raise NotImplementedError

    def next_results(self) -> list[tuple[Any, SimulationRecord]]:
        """Block until at least one lane run resolves; return the batch.

        The batch is a non-empty list of ``(token, record)`` pairs, one
        per finished run; every token shows up exactly once overall.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release workers, pools and connections (idempotent)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def worker_stats(self) -> dict[str, dict[str, Any]]:
        """This run's per-worker dispatch records, ``{}`` by default.

        Transports that track heterogeneous worker capacities (the
        queue transport) report ``{worker: {capacity, points, busy_s,
        throughput}}`` here, reported on
        :attr:`~repro.core.campaign.CampaignResult.worker_stats`.
        """
        return {}


#: The one environment of a local pool worker process.
_POOL_ENV: SimulationEnvironment | None = None


def _init_pool_worker(spec: Any) -> None:
    """Pool initializer: build this worker process's one environment."""
    global _POOL_ENV
    _POOL_ENV = spec.build()


def _run_pooled(token: Any, run: LaneRun) -> tuple[Any, SimulationRecord]:
    """A local pool process's one executor; echoes the run's token."""
    return token, run_simulation(run.app_cls, run.config, run.lanes, _POOL_ENV)


class LocalPoolTransport(WorkerTransport):
    """A local :class:`ProcessPoolExecutor`.

    What ``workers=N`` means: one pool whose initializer builds a
    single :class:`~repro.core.simulate.SimulationEnvironment` per
    worker process from the :class:`~repro.core.engine.EnvSpec`, and
    one pool task per lane run.
    """

    def __init__(self, workers: int) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("LocalPoolTransport needs at least one worker")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._futures: set[Any] = set()

    def start(self, spec: Any) -> None:
        """Create the worker pool (environments built once per worker)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_pool_worker,
                initargs=(spec,),
            )

    def submit_chunk(self, token: Any, chunk: ChunkTask) -> None:
        """Schedule each lane run of the chunk as its own pool task."""
        if self._pool is None:
            raise TransportError("transport is not started")
        for run_token, run in chunk.entries:
            self._futures.add(self._pool.submit(_run_pooled, run_token, run))

    def next_results(self) -> list[tuple[Any, SimulationRecord]]:
        """Pop every finished lane run, waiting on the pool as needed."""
        if not self._futures:
            raise TransportError("no outstanding work")
        done, _ = wait(self._futures, return_when=FIRST_COMPLETED)
        self._futures -= done
        return [future.result() for future in done]

    def close(self) -> None:
        """Shut the pool down, waiting for workers to exit."""
        pool, self._pool = self._pool, None
        self._futures.clear()
        if pool is not None:
            pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# socket helpers (shared with the broker)
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


def _connect_with_retry(address: tuple[str, int], retry_s: float) -> socket.socket:
    """Connect to the broker, retrying until ``retry_s`` has passed.

    ``retry_s=0`` makes exactly one attempt.  The socket keeps the
    10 s connect timeout; the caller sets the one its replies need.
    """
    deadline = time.monotonic() + retry_s
    while True:
        try:
            return socket.create_connection(address, timeout=10.0)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportError(
                    f"could not reach broker at {address[0]}:{address[1]} "
                    f"within {retry_s:.0f}s: {exc}"
                ) from exc
            time.sleep(0.2)
