"""Dependency-aware task-graph scheduling of exploration batches.

A campaign run as global phase barriers -- every application's step-1
batch finished before *any* application's step-2 grid starts -- leaves
the worker pool idle behind one slow exhaustive sweep exactly where the
methodology's pruning should buy wall-clock.  This module schedules a
campaign as a small task graph instead:

* a :class:`TaskNode` is one application batch -- a list of
  ``(config, assignment)`` points plus an optional **continuation**
  that runs in the parent process when the node's last point resolves
  and may return follow-up nodes;
* a :class:`TaskGraph` drains nodes through one shared
  :class:`~repro.core.engine.ExplorationEngine` with one loop: every
  node's lane runs go to the engine's single
  :class:`~repro.core.transport.WorkerTransport` and every result comes
  back from it -- :class:`InProcessTransport` with ``workers=0``, the
  local process pool with ``workers=N``, an elastic broker-decoupled
  fleet with a :class:`~repro.core.broker.QueueTransport` -- so a fast
  application's step-2 grid simulates concurrently with a slow
  application's step-1 sweep.

Determinism is preserved by construction: each node's ``records`` are
slotted by point index (never by completion order), continuations run
in the parent process, and a simulation record is a pure function of
``(application, config, assignment)`` under a fixed environment -- so
the graph produces bit-identical per-app results to plain serial
refinements (asserted by ``tests/test_taskgraph.py``).

**Separable evaluation.**  The paper gives every dominant data structure
its own memory, so a point's four metrics are a pure function of
per-structure parts (:class:`~repro.memory.profiler.ProfileParts`), and
a structure's part depends only on its own operation stream and DDT.
The graph therefore simulates no requested point directly: it groups
each node's cache misses by configuration, simulates each group as one
*lane run* (:func:`lane_assignment`: per structure, every DDT the group
needs, charged side by side in one application run), and *composes*
every miss from the lane run's parts (:func:`compose_records`) through
the aggregation :meth:`~repro.memory.profiler.MemoryProfiler.metrics`
uses, so composed records equal simulated ones bit for bit.  The lane
run (:class:`~repro.core.transport.LaneRun`) is the unit a transport
dispatches, leases and returns; composed points are never dispatched.
A node hands all its lane runs to the transport in one
:meth:`~repro.core.transport.WorkerTransport.submit_chunk` call.

Every point's cache entry is keyed by a fingerprint over the model
parameters and *only the profile of that point's own trace*.  A record
really is a pure function of exactly those inputs, so entries survive
edits to unrelated profiles and sweep widenings -- which is what lets
an incremental campaign re-run reuse every shard whose inputs did not
change (see :mod:`repro.core.campaign`) -- and every entry point (a
campaign, a single refinement, a bare batch) shares the same shards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.apps.base import NetworkApplication
from repro.core.results import SimulationRecord
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.core.transport import ChunkTask, LaneRun, TransportError, WorkerTransport
from repro.ddt.registry import combination_label
from repro.net.config import NetworkConfig

__all__ = [
    "InProcessTransport",
    "TaskGraph",
    "TaskNode",
    "compose_records",
    "lane_assignment",
]

def lane_assignment(
    structures: Sequence[str], assignments: Iterable[Mapping[str, str]]
) -> dict[str, tuple[str, ...]]:
    """The lane run of a group of assignments sharing one configuration.

    Per structure, the distinct DDTs the assignments use, in first-seen
    order -- so one run charges every (structure, DDT) pair the group
    needs, and the first lanes form the group's first assignment.
    """
    lanes: dict[str, dict[str, None]] = {structure: {} for structure in structures}
    for assignment in assignments:
        for structure, ddts in lanes.items():
            ddts.setdefault(assignment[structure], None)
    return {structure: tuple(ddts) for structure, ddts in lanes.items()}


def compose_records(
    app_cls: type[NetworkApplication],
    config: NetworkConfig,
    run: SimulationRecord,
    assignments: Sequence[Mapping[str, str]],
) -> list[SimulationRecord]:
    """Each assignment's record, composed from one lane run's parts.

    ``run`` is the simulated record of the group's
    :func:`lane_assignment`.  Each assignment's parts are selected from
    it (:meth:`~repro.memory.profiler.ProfileParts.select`), and the
    metrics go through :meth:`~repro.memory.profiler.ProfileParts.metrics`,
    as in :func:`~repro.core.simulate.run_simulation` -- so a composed
    record equals a plain simulation of its assignment bit for bit, provided
    every cost is charged through a structure's own pool or is the
    per-packet charge.  An app is not handed its assignment: it reaches
    its DDTs only through ``make_structure``.  A
    run without parts, or with a pool outside the dominant structures,
    is a :class:`ValueError` naming the app and config.  Composed
    records carry no parts; each gets an equal share of the run's wall
    time.
    """
    where = f"{app_cls.name} @ {config.label}"
    parts = run.parts
    if parts is None:
        raise ValueError(f"{where}: the lane run carries no per-pool parts")
    for part in parts.pools:
        if part.name not in app_cls.dominant_structures:
            raise ValueError(f"{where}: pool {part.name!r} is not a dominant structure")
    wall = run.wall_time_s / len(assignments)
    return [
        SimulationRecord(
            app_name=app_cls.name,
            config_label=config.label,
            combo_label=combination_label(assignment, app_cls.dominant_structures),
            metrics=parts.select(assignment).metrics(),
            stats=dict(run.stats),
            wall_time_s=wall,
        )
        for assignment in assignments
    ]


#: ``(node, done-in-node, node-total, detail)`` -- node-relative so the
#: caller can aggregate per phase, per app, or globally as it likes.
GraphProgress = Callable[["TaskNode", int, int, str], None]

#: A continuation receives the node's records (point order) and may
#: return follow-up nodes to schedule.
Continuation = Callable[[Sequence[SimulationRecord]], "Iterable[TaskNode] | None"]


@dataclass
class TaskNode:
    """One schedulable batch of exploration points.

    Attributes
    ----------
    name:
        Display / debugging identity, e.g. ``"Route/application-level"``.
    app_cls:
        Application every point of this node simulates.
    points:
        ``(config, assignment)`` pairs, in the order results are slotted.
    details:
        Progress strings, index-aligned with ``points``; derived from
        the point labels when omitted.
    phase:
        Free-form tag a progress adapter can group nodes by (the
        refinement chain uses the step names).
    continuation:
        Parent-process callback invoked with the completed ``records``;
        any nodes it returns are scheduled on the same graph.
    records:
        Results, index-aligned with ``points``; populated by the run.
    cache_hits / simulations / composed:
        How this node was resolved -- points served from the record
        cache, lane runs simulated (one per configuration with misses),
        and points composed from lane runs -- the per-node split the
        campaign aggregates into its incremental report.
        ``cache_hits + composed`` is every point of the node.
    """

    name: str
    app_cls: type[NetworkApplication]
    points: list[tuple[NetworkConfig, Mapping[str, str]]]
    details: list[str] | None = None
    phase: str = ""
    continuation: Continuation | None = None
    records: list[SimulationRecord | None] = field(default_factory=list, repr=False)
    cache_hits: int = 0
    simulations: int = 0
    composed: int = 0
    _labels: list[str] = field(default_factory=list, repr=False)
    _remaining: int = field(default=0, repr=False)
    _done: int = field(default=0, repr=False)
    _prepared: bool = field(default=False, repr=False)

    @property
    def total(self) -> int:
        """Number of points this node schedules."""
        return len(self.points)

    @property
    def complete(self) -> bool:
        """Whether every point has a slotted record."""
        return self._prepared and self._done == len(self.points)


@dataclass
class _Group:
    """One configuration's cache misses within a node."""

    config: NetworkConfig
    misses: list[int] = field(default_factory=list)


class InProcessTransport(WorkerTransport):
    """``workers=0``: lane runs simulated in the calling process.

    Each :meth:`next_results` call simulates the next queued run, FIFO,
    in the engine's own environment (so its trace cache serves every
    run), and returns it as a one-pair batch.
    """

    def __init__(self, env: SimulationEnvironment) -> None:
        super().__init__()
        self.env = env
        self._queue: deque[tuple[Any, LaneRun]] = deque()

    def start(self, spec: Any) -> None:
        """Nothing to start: runs use the environment given above."""

    def submit_chunk(self, token: Any, chunk: ChunkTask) -> None:
        """Queue every lane run of the chunk."""
        self._queue.extend(chunk.entries)

    def next_results(self) -> list[tuple[Any, SimulationRecord]]:
        """Simulate the next queued run."""
        if not self._queue:
            raise TransportError("no outstanding work")
        token, run = self._queue.popleft()
        return [(token, run_simulation(run.app_cls, run.config, run.lanes, self.env))]

    def close(self) -> None:
        """Drop whatever is still queued."""
        self._queue.clear()


class TaskGraph:
    """Drain a set of :class:`TaskNode`\\ s through one engine.

    Parameters
    ----------
    engine:
        The shared :class:`~repro.core.engine.ExplorationEngine`; its
        worker pool, persistent cache and trace store serve every node.
    progress:
        Optional node-relative callback
        ``(node, done-in-node, node-total, detail)``.

    Every node's lane runs are submitted as soon as the node is
    queued, so the transport's workers stay saturated across nodes, and
    each continuation runs as soon as its node's last point lands,
    immediately submitting any follow-up nodes.  With ``workers=0`` the
    :class:`InProcessTransport` simulates the queued runs FIFO.  Either
    way ``records`` end up in point order and bit-identical across
    transports.
    """

    def __init__(
        self,
        engine,  # ExplorationEngine; untyped to avoid a circular import
        progress: GraphProgress | None = None,
    ) -> None:
        self.engine = engine
        self.progress = progress
        self.nodes: list[TaskNode] = []
        self._queue: deque[TaskNode] = deque()

    # ------------------------------------------------------------------
    def add(self, node: TaskNode) -> TaskNode:
        """Schedule one node (callable before or during :meth:`run`)."""
        if node.details is not None and len(node.details) != len(node.points):
            raise ValueError("details must be index-aligned with points")
        self.nodes.append(node)
        self._queue.append(node)
        return node

    # ------------------------------------------------------------------
    def _prepare(self, node: TaskNode) -> list[_Group]:
        """Resolve labels, details and cache hits; group the misses by
        configuration."""
        engine = self.engine
        node._labels = [
            combination_label(assignment, node.app_cls.dominant_structures)
            for _, assignment in node.points
        ]
        if node.details is None:
            node.details = [
                f"{label} @ {config.label}"
                for (config, _), label in zip(node.points, node._labels)
            ]
        node.records = [None] * len(node.points)
        node.cache_hits = node.simulations = node.composed = 0
        node._done = node._remaining = 0
        node._prepared = True
        engine.stats.batches += 1
        groups: dict[str, _Group] = {}
        for index, (config, _assignment) in enumerate(node.points):
            cached = None
            if engine.cache is not None:
                cached = engine.cache.get(
                    node.app_cls.name,
                    engine.fingerprint_for((config.trace_name,)),
                    config.label,
                    node._labels[index],
                )
            if cached is not None:
                node.records[index] = cached
                node.cache_hits += 1
                engine.stats.cache_hits += 1
                node._done += 1
                self._emit(node, f"{node.details[index]} (cached)")
                continue
            group = groups.get(config.label)
            if group is None:
                group = groups[config.label] = _Group(config)
            group.misses.append(index)
            node._remaining += 1
        return list(groups.values())

    def _emit(self, node: TaskNode, detail: str) -> None:
        if self.progress is not None:
            self.progress(node, node._done, node.total, detail)

    def _compose(self, node: TaskNode, group: _Group, run: SimulationRecord) -> None:
        """Account for a group's lane run; slot every miss of the group,
        composed from it, and write it through the coordinator cache."""
        engine = self.engine
        node.simulations += 1
        engine.stats.simulations += 1
        records = compose_records(
            node.app_cls,
            group.config,
            run,
            [node.points[index][1] for index in group.misses],
        )
        fingerprint = engine.fingerprint_for((group.config.trace_name,))
        for index, record in zip(group.misses, records):
            if engine.cache is not None:
                engine.cache.put(node.app_cls.name, fingerprint, record)
            node.records[index] = record
            node.composed += 1
            engine.stats.composed += 1
            node._remaining -= 1
            node._done += 1
            self._emit(node, node.details[index])

    def _complete(self, node: TaskNode) -> None:
        """Run the continuation; schedule any follow-up nodes."""
        if node.continuation is None:
            return
        followups = node.continuation(list(node.records))
        for child in followups or ():
            if not isinstance(child, TaskNode):
                raise TypeError(
                    f"continuation of {node.name!r} returned {type(child).__name__}; "
                    "continuations must return TaskNodes (or None)"
                )
            self.add(child)

    # ------------------------------------------------------------------
    def run(self) -> list[TaskNode]:
        """Drain the graph; returns every node, in scheduling order.

        The one drain loop, whatever the transport: each queued node's
        lane runs go to the engine's transport in one chunk, and each
        result is composed into its node as it lands.  A completed
        node's continuation runs at once and its follow-ups are
        submitted before the next wait, so workers never idle on this
        loop.  On any failure the transport is torn down before the
        error surfaces, so a later ``engine.close()`` has nothing left
        to leak or hang on.
        """
        engine = self.engine
        try:
            self._drain(engine.transport())
        except BaseException:
            engine.shutdown_transport()
            raise
        if engine.cache is not None:
            engine.cache.flush()
        unresolved = [
            node.name
            for node in self.nodes
            if any(record is None for record in node.records)
        ]
        if unresolved:
            raise RuntimeError(f"task-graph nodes never resolved: {unresolved}")
        return list(self.nodes)

    def _drain(self, transport: WorkerTransport) -> None:
        store = self.engine.trace_store
        slots: dict[int, tuple[TaskNode, _Group]] = {}
        tokens = count()

        def launch_queued() -> None:
            while self._queue:
                node = self._queue.popleft()
                groups = self._prepare(node)
                if not groups:
                    self._complete(node)
                    continue
                if store is not None:
                    # Generate missing trace files once, here; every
                    # executor only loads them.
                    store.ensure(group.config.trace_name for group in groups)
                entries = []
                for group in groups:
                    token = next(tokens)
                    slots[token] = (node, group)
                    lanes = lane_assignment(
                        node.app_cls.dominant_structures,
                        (node.points[index][1] for index in group.misses),
                    )
                    config = group.config
                    run = LaneRun(
                        node.app_cls, config.trace_name, dict(config.app_params), lanes
                    )
                    entries.append((token, run))
                transport.submit_chunk(node.name, ChunkTask.of(entries))

        launch_queued()
        while slots:
            for token, record in transport.next_results():
                entry = slots.pop(token, None)
                if entry is None:
                    # Duplicate delivery after a requeue race (the queue
                    # broker already deduplicates by token).
                    continue
                node, group = entry
                self._compose(node, group, record)
                if node._remaining == 0:
                    self._complete(node)
                    launch_queued()
