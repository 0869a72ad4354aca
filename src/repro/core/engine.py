"""Batched, parallel, cached exploration engine.

The methodology's cost is dominated by simulations: step 1 alone runs
the full 100-combination sweep, and every sensitivity grid or new
scenario multiplies it.  The paper attacks that cost algorithmically
(the 3-step pruning); this module attacks what remains mechanically:

* **Batching** -- the per-point ``run_simulation`` loops of steps 1-2
  are expressed as batches of ``(config, assignment)`` points submitted
  through one :class:`ExplorationEngine`.
* **One transport per engine** -- every lane run goes through the
  engine's one :mod:`~repro.core.transport` backend
  (:meth:`ExplorationEngine.transport`).  ``workers=0`` (the default
  everywhere, and what the test suite runs) simulates in-process;
  ``workers=N`` schedules across a
  :class:`concurrent.futures.ProcessPoolExecutor` whose processes each
  build exactly one :class:`SimulationEnvironment` from a picklable
  :class:`EnvSpec`, so every worker runs under identical model
  parameters; a :class:`~repro.core.broker.QueueTransport` distributes
  the same runs to ``ddt-explore worker --connect-broker`` processes.
  Results are slotted by submission token, so the records match
  whichever transport ran them.  Each lane run is one dispatched task;
  no timing measured by an earlier run steers the schedule.
* **Persistent caching** -- an optional :class:`SimulationCache`, the
  one record store, appends finished
  :class:`~repro.core.results.SimulationRecord`\\ s to JSON-lines
  shards ``.repro_cache/<app>/<app>-<fingerprint>.v3.jsonl``, keyed by
  ``(app, config label, combo label, model fingerprint)``.  The
  fingerprint (:func:`model_fingerprint`) hashes the
  :class:`~repro.memory.cacti.CactiModel` coefficients, the
  :class:`~repro.memory.timing.OperationCosts` table, the generation
  profile of the record's own trace and the source of the code that
  turns them into records (:func:`model_source_digest`), so entries
  self-invalidate whenever any model input or model code changes.  A
  warm cache re-runs a whole case study with zero new simulations.

The engine executes nothing itself: a
:class:`~repro.core.taskgraph.TaskGraph` drains nodes through it.
:meth:`ExplorationEngine.run_batch` puts one continuation-free
:class:`~repro.core.taskgraph.TaskNode` on a graph; dependency-aware
callers (the refinement chain of :mod:`repro.core.campaign`) add nodes
whose continuations enqueue follow-up work as soon as its inputs
resolve, instead of waiting on a global phase barrier.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.apps.base import NetworkApplication
from repro.core.metrics import MetricVector
from repro.core.results import SimulationRecord
from repro.core.simulate import SimulationEnvironment
from repro.core.taskgraph import InProcessTransport, TaskGraph, TaskNode
from repro.core.transport import LocalPoolTransport, WorkerTransport
from repro.memory.cacti import CactiModel
from repro.memory.timing import OperationCosts
from repro.net.config import NetworkConfig
from repro.net.profiles import profiles_fingerprint_payload
from repro.net.tracestore import TraceStore, source_digest

__all__ = [
    "EnvSpec",
    "EngineStats",
    "ExplorationEngine",
    "SimulationCache",
    "model_fingerprint",
    "model_source_digest",
]

ProgressCallback = Callable[[int, int, str], None]


# ----------------------------------------------------------------------
# picklable environment specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EnvSpec:
    """Picklable recipe for a :class:`SimulationEnvironment`.

    A :class:`SimulationEnvironment` itself carries a trace cache that
    can hold megabytes of generated packets; shipping it to worker
    processes would serialise all of that per task.  The spec carries
    only the model parameters -- each worker rebuilds its environment
    once (pool initializer).  With ``trace_store`` set the worker
    hydrates traces from the persistent on-disk store (the parent
    pre-generates them, see :class:`~repro.core.taskgraph.TaskGraph`);
    without it the worker regenerates traces locally on first use.
    Workers keep no records of their own: the coordinator's
    :class:`SimulationCache` is the only record store.

    ``model_digest`` is the :func:`model_source_digest` of the build
    that made the spec (not a constructor parameter: a caller cannot
    set it); a queue worker of another build refuses the campaign
    instead of returning records of another model.
    """

    cacti: CactiModel
    costs: OperationCosts
    trace_store: str | None = None
    model_digest: str = dataclasses.field(
        init=False, default_factory=lambda: model_source_digest(MODEL_SOURCE_ROOT)
    )

    @classmethod
    def from_env(cls, env: SimulationEnvironment) -> "EnvSpec":
        """Capture the model parameters of an existing environment."""
        store = env.trace_store
        return cls(
            cacti=env.cacti,
            costs=env.costs,
            trace_store=store.directory if store is not None else None,
        )

    def build(self) -> SimulationEnvironment:
        """Instantiate a fresh environment (empty trace cache)."""
        return SimulationEnvironment(
            cacti=self.cacti,
            costs=self.costs,
            trace_store=(
                TraceStore(self.trace_store) if self.trace_store is not None else None
            ),
        )


# ----------------------------------------------------------------------
# model fingerprint
# ----------------------------------------------------------------------
#: The ``repro`` package directory the model source is read from.
MODEL_SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The code that turns model inputs into records, relative to the
#: package: the applications, the DDT library, the memory model, the
#: trace generator and the simulation driver.
MODEL_SOURCES = ("apps", "ddt", "memory", "net", os.path.join("core", "simulate.py"))


def model_source_digest(root: str) -> str:
    """SHA-256 over every ``.py`` file of :data:`MODEL_SOURCES` under
    the package directory ``root`` (relative path and bytes), computed
    once per process and root (:func:`~repro.net.tracestore.source_digest`).

    :func:`model_fingerprint` hashes :data:`MODEL_SOURCE_ROOT`'s digest:
    any edit there -- a comment included -- changes every fingerprint,
    so no cached record outlives the code that made it.
    """
    return source_digest(root, MODEL_SOURCES)


def model_fingerprint(
    env: SimulationEnvironment, trace_names: Sequence[str] | None = None
) -> str:
    """Hash every model input that determines simulation results.

    Covers the CACTI technology coefficients (and any extra attributes a
    :class:`~repro.memory.cacti.CactiModel` subclass adds, e.g. the flat
    ablation model's energies), the CPU operation cost table, the
    trace-profile registry and the model source
    (:func:`model_source_digest`).  Two environments with the
    same fingerprint produce byte-identical records for the same point,
    so the fingerprint is what keys the persistent cache -- change any
    coefficient and previously cached records simply stop matching.

    With ``trace_names`` the profile part of the hash covers *only
    those profiles*, yielding a fingerprint scoped to one application's
    sweep: editing an unrelated trace profile then leaves the scoped
    fingerprint -- and every cached record keyed by it -- intact, which
    is what the campaign's incremental resume builds on.  ``None`` (the
    default) hashes the full registry.
    """
    cacti = env.cacti
    extra = {
        name: repr(value)
        for name, value in sorted(vars(cacti).items())
        if name not in ("technology", "_cache")
    }
    payload = {
        "cacti_class": f"{type(cacti).__module__}.{type(cacti).__qualname__}",
        "technology": dataclasses.asdict(cacti.technology),
        "cacti_extra": extra,
        "costs": dataclasses.asdict(env.costs),
        "profiles": profiles_fingerprint_payload(trace_names),
        "model_source": model_source_digest(MODEL_SOURCE_ROOT),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# persistent on-disk cache
# ----------------------------------------------------------------------
def _record_to_json(record: SimulationRecord) -> dict[str, Any]:
    return {
        "app_name": record.app_name,
        "config_label": record.config_label,
        "combo_label": record.combo_label,
        "metrics": {
            "energy_mj": record.metrics.energy_mj,
            "time_s": record.metrics.time_s,
            "accesses": record.metrics.accesses,
            "footprint_bytes": record.metrics.footprint_bytes,
        },
        "stats": dict(record.stats),
        "wall_time_s": record.wall_time_s,
    }


def _record_from_json(data: Mapping[str, Any]) -> SimulationRecord:
    metrics = data["metrics"]
    return SimulationRecord(
        app_name=data["app_name"],
        config_label=data["config_label"],
        combo_label=data["combo_label"],
        metrics=MetricVector(
            energy_mj=float(metrics["energy_mj"]),
            time_s=float(metrics["time_s"]),
            accesses=int(metrics["accesses"]),
            footprint_bytes=int(metrics["footprint_bytes"]),
        ),
        # Stats are written verbatim by _record_to_json; coercing with
        # int() here would silently truncate float-valued stats and
        # break the bit-for-bit cache-hit guarantee.
        stats=dict(data.get("stats", {})),
        wall_time_s=float(data.get("wall_time_s", 0.0)),
    )


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).lower() or "app"


#: Record-shard format, part of every shard's file name: a shard of
#: another format is never opened, so a cache written by another format
#: runs cold once.
SHARD_VERSION = 3


class SimulationCache:
    """Persistent record store under a cache directory.

    One append-only JSON-lines shard per ``(application, model
    fingerprint)`` pair, kept in a per-application subdirectory, e.g.
    ``.repro_cache/route/route-1f2e3d4c5b6a7980.v3.jsonl`` -- a
    multi-app campaign writes through one instance while every
    application's records stay physically isolated.  Keys inside a shard
    are ``(config label, combo label)`` pairs.  Because the fingerprint
    is part of the shard identity, stale shards (written under different
    model coefficients) are never consulted -- they are invisible rather
    than wrong.

    Each :meth:`flush` appends one line per shard with new records,
    ``{"fingerprint": ..., "records": [...]}``; loading a shard replays
    its lines in order, and a later record of a point replaces an
    earlier one.  A line that does not parse (one a killed writer left
    torn) or that names another fingerprint (a copied or renamed file)
    is skipped, so a damaged shard costs misses, never wrong records.

    Floats survive the JSON round trip exactly (``json`` serialises via
    ``repr``), so a cache hit reproduces the original record's metrics
    bit for bit.
    """

    def __init__(self, directory: str | os.PathLike[str] = ".repro_cache") -> None:
        self.directory = os.fspath(directory)
        # Per (app, fingerprint) shard: its records by record key, and
        # the records put since the last flush.
        self._shards: dict[tuple[str, str], dict[tuple, SimulationRecord]] = {}
        self._unflushed: dict[tuple[str, str], dict[tuple, SimulationRecord]] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _shard_path(self, app_name: str, fingerprint: str) -> str:
        slug = _slug(app_name)
        return os.path.join(
            self.directory, slug, f"{slug}-{fingerprint}.v{SHARD_VERSION}.jsonl"
        )

    def _shard(self, app_name: str, fingerprint: str) -> dict[tuple, SimulationRecord]:
        """One shard's records, replayed from its file on first use."""
        key = (app_name, fingerprint)
        shard = self._shards.get(key)
        if shard is not None:
            return shard
        shard = self._shards[key] = {}
        try:
            with open(self._shard_path(app_name, fingerprint), "rb") as handle:
                lines = handle.readlines()
        except OSError:
            return shard  # absent or unreadable shard: every point misses
        for line in lines:
            try:
                batch = json.loads(line)
                if batch["fingerprint"] == fingerprint:
                    records = [_record_from_json(data) for data in batch["records"]]
                    shard.update((record.key, record) for record in records)
            except (ValueError, KeyError, TypeError):
                pass  # a torn line: its records miss
        return shard

    # ------------------------------------------------------------------
    def get(
        self,
        app_name: str,
        fingerprint: str,
        config_label: str,
        combo_label: str,
    ) -> SimulationRecord | None:
        """Look one point up; ``None`` on a miss."""
        record = self._shard(app_name, fingerprint).get((config_label, combo_label))
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def put(self, app_name: str, fingerprint: str, record: SimulationRecord) -> None:
        """Store one finished record (appended to disk by :meth:`flush`)."""
        self._shard(app_name, fingerprint)[record.key] = record
        self._unflushed.setdefault((app_name, fingerprint), {})[record.key] = record

    def flush(self) -> None:
        """Append each shard's records put since the last flush.

        One line per shard, each point once, in put order.  The line
        goes out in one unbuffered ``write`` to a file opened for
        appending, so writers sharing the directory only ever add to a
        shard: on a local POSIX filesystem concurrent appends do not
        interleave, and each line starts on a fresh line, so one that
        follows a torn line stays readable.
        """
        for (app_name, fingerprint), records in list(self._unflushed.items()):
            path = self._shard_path(app_name, fingerprint)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            batch = {
                "fingerprint": fingerprint,
                "records": [_record_to_json(record) for record in records.values()],
            }
            line = b"\n" + json.dumps(batch).encode("utf-8")
            with open(path, "ab", buffering=0) as handle:
                if handle.write(line) != len(line):
                    raise OSError(f"short append to record shard {path}")
            del self._unflushed[(app_name, fingerprint)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """Counters of what the engine actually did (vs. served from cache).

    ``cache_hits`` counts requested points the :class:`SimulationCache`
    resolved before dispatch; every other requested point is
    ``composed`` from the per-pool parts of a *lane run* (see
    :mod:`repro.core.taskgraph`).  ``simulations`` counts lane runs --
    application runs, one per node and configuration with misses --
    each simulated in-process or by a transport worker.
    """

    simulations: int = 0
    cache_hits: int = 0
    batches: int = 0
    composed: int = 0

    @property
    def points(self) -> int:
        """Requested points resolved: cache hits plus composed points."""
        return self.cache_hits + self.composed


class ExplorationEngine:
    """Batched (config, assignment)-point evaluator with cache and pool.

    Parameters
    ----------
    env:
        Simulation environment of in-process runs and the template for
        worker environments; a fresh default one when omitted.
    workers:
        ``0`` (default) simulates lane runs in this process, in ``env``.
        ``N >= 1`` evaluates cache misses on a pool of ``N`` worker
        processes.
    cache:
        ``None`` disables persistence; a path enables the on-disk record
        cache there; an existing :class:`SimulationCache` is used as-is.
    trace_store:
        ``None`` keeps the environment's existing trace source; a path
        attaches a persistent :class:`~repro.net.tracestore.TraceStore`
        there; an existing store is used as-is.  With a persistent
        store, the task graph writes every missing trace file a node
        needs before submitting it, and workers load them from disk
        instead of regenerating per worker.
    transport:
        ``None`` (default) picks one from ``workers`` (see
        :meth:`transport`).  An explicit
        :class:`~repro.core.transport.WorkerTransport` (e.g. a
        :class:`~repro.core.broker.QueueTransport`) routes every cache
        miss through it instead, regardless of ``workers``.

    The engine is a context manager; :meth:`close` shuts the worker
    transport down (an in-process transport holds no resources).
    """

    DEFAULT_CACHE_DIR = ".repro_cache"

    def __init__(
        self,
        env: SimulationEnvironment | None = None,
        workers: int = 0,
        cache: "SimulationCache | str | os.PathLike[str] | None" = None,
        trace_store: "TraceStore | str | os.PathLike[str] | None" = None,
        transport: WorkerTransport | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.env = env if env is not None else SimulationEnvironment()
        self.workers = workers
        if cache is None or isinstance(cache, SimulationCache):
            self.cache: SimulationCache | None = cache
        else:
            self.cache = SimulationCache(cache)
        if trace_store is None:
            store = self.env.trace_store
        elif isinstance(trace_store, TraceStore):
            store = trace_store
        else:
            store = TraceStore(trace_store)
        self.trace_store = store
        self.env.trace_store = store
        self.stats = EngineStats()
        self._fingerprints: dict[tuple[str, ...] | None, str] = {}
        self._transport_spec = transport
        self._transport: WorkerTransport | None = None

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Global model fingerprint of this engine's environment.

        It hashes every trace profile; records are keyed by the
        trace-scoped :meth:`fingerprint_for` instead.
        """
        return self.fingerprint_for(None)

    def fingerprint_for(self, trace_names: Sequence[str] | None) -> str:
        """Model fingerprint scoped to some trace profiles (memoised).

        ``None`` hashes the full profile registry (== :attr:`fingerprint`);
        a sequence of trace names hashes only those profiles, so cache
        shards keyed by the scoped fingerprint survive edits to profiles
        the scope does not touch.
        """
        key = tuple(sorted(set(trace_names))) if trace_names is not None else None
        cached = self._fingerprints.get(key)
        if cached is None:
            cached = model_fingerprint(self.env, key)
            self._fingerprints[key] = cached
        return cached

    def transport(self) -> WorkerTransport:
        """The running transport, starting it on first use.

        An explicitly supplied transport is started as-is; otherwise
        ``workers=N`` creates a
        :class:`~repro.core.transport.LocalPoolTransport` over ``N``
        processes, whose workers build their environments from this
        engine's :class:`EnvSpec`, and ``workers=0`` an
        :class:`~repro.core.taskgraph.InProcessTransport` on this
        engine's own environment.  The campaign reads its fleet report
        (``quarantined``, ``outages``, ``worker_stats()``) from here.
        """
        if self._transport is None:
            if self._transport_spec is not None:
                transport = self._transport_spec
            elif self.workers:
                transport = LocalPoolTransport(self.workers)
            else:
                transport = InProcessTransport(self.env)
            transport.start(EnvSpec.from_env(self.env))
            self._transport = transport
        return self._transport

    def shutdown_transport(self) -> None:
        """Close and forget the active transport (idempotent).

        Called by the task graph when a run fails so a broken worker
        pool/coordinator is never left behind for :meth:`close` to trip
        over -- the regression of ``tests/test_engine.py``'s teardown
        suite.
        """
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    def close(self) -> None:
        """Shut the worker transport down and flush the cache.

        The flush runs even when transport teardown raises, so cached
        records are never lost to a broken pool.
        """
        try:
            self.shutdown_transport()
        finally:
            if self.cache is not None:
                self.cache.flush()

    def __enter__(self) -> "ExplorationEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run_batch(
        self,
        app_cls: type[NetworkApplication],
        points: Sequence[tuple[NetworkConfig, Mapping[str, str]]],
        progress: ProgressCallback | None = None,
        details: Sequence[str] | None = None,
    ) -> list[SimulationRecord]:
        """Evaluate a batch of points, in deterministic point order.

        The batch is one continuation-free
        :class:`~repro.core.taskgraph.TaskNode` on a
        :class:`~repro.core.taskgraph.TaskGraph`.  Cache hits are
        resolved first (and reported to ``progress`` first, in point
        order); the remaining points are simulated in-process or on the
        worker pool.  The returned list is always index-aligned with
        ``points``.
        """
        node = TaskNode(
            name=f"batch/{app_cls.name}",
            app_cls=app_cls,
            points=list(points),
            details=list(details) if details is not None else None,
        )
        graph = TaskGraph(self)
        if progress is not None:
            graph.progress = lambda _node, done, total, detail: progress(
                done, total, detail
            )
        graph.add(node)
        graph.run()
        return list(node.records)
