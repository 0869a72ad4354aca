"""Campaign scheduling: every case study as one global exploration.

The engine makes a single refinement parallel and cacheable; this
module makes the *whole paper* one workload.  A
:class:`RefinementChain` is the methodology's three steps for one
application as task-graph nodes, and it is built only here:
:class:`CampaignScheduler` puts one chain per registered case study
(plus any sensitivity grids) on one
:class:`~repro.core.taskgraph.TaskGraph` submitted through a single
:class:`~repro.core.engine.ExplorationEngine` pool, and
:class:`~repro.core.methodology.DDTRefinement` runs a graph with one
chain.  Each application's step-1 node carries a continuation that
plans and enqueues that application's step-2 grid the moment its own
survivors are known -- a fast app's network-level grid simulates
concurrently with a slow app's exhaustive sweep, with no global phase
barrier.  Per-app results are bit-identical to standalone serial
refinements (asserted by the tests), because records are slotted by
point index and simulation is a pure function of ``(application,
config, assignment)``.

Per-app records persist under ``.repro_cache/<app>/`` via
:class:`~repro.core.engine.SimulationCache`, and traces come
from the shared :class:`~repro.net.tracestore.TraceStore`, generated
once per profile fingerprint for the whole campaign.

**Incremental campaigns**: a campaign with a persistent cache records
a ``campaign-manifest.json`` next to its shards -- per application, the
scoped model fingerprint, config labels, combination labels and
per-trace profile fingerprints.  Because every cache entry is keyed by
a trace-scoped fingerprint (model parameters plus *only the profile of
each record's own trace*), editing one trace
profile or widening one app's grid invalidates exactly the affected
records; a ``resume=True`` re-run replays every unaffected shard from
cache and resimulates only the delta, reported per app by
:attr:`CampaignResult.incremental`.

**Distributed campaigns**: a :class:`~repro.core.broker.QueueTransport`
(or ``ddt-explore campaign --transport queue``) leases the same
task-graph nodes to ``ddt-explore worker --connect-broker`` processes
through a broker instead of a local pool -- workers pull tasks and push
results, so they can join, leave and rejoin mid-campaign, and the
shared trace store is the artifact layer they hydrate from.  Workers
keep no records of their own, so a rerun warm-starts only from the
coordinator's persistent cache.  Crashed workers' unresolved points are
requeued to the survivors and repeat offenders are reported on
:attr:`CampaignResult.quarantined`.  Each worker advertises a capacity
in its hello and keeps that many points in flight, so dispatch is
weighted by it; what each worker did is reported on
:attr:`CampaignResult.worker_stats`.

Every scheduling choice is a function of the current run's inputs:
step-1 nodes are enqueued in study order and each lane run is
dispatched on its own.  Nothing a previous run measured feeds back into
the schedule, so the manifest holds only what ``resume`` diffs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.apps.base import NetworkApplication
from repro.core.application_level import (
    Step1Result,
    finish_application_level,
    step1_points,
)
from repro.core.casestudies import CASE_STUDIES, CaseStudy, case_study
from repro.core.engine import EngineStats, ExplorationEngine, SimulationCache
from repro.core.methodology import RefinementResult, exhaustive_simulation_count
from repro.core.network_level import (
    Step2Result,
    finish_network_level,
    plan_network_level,
)
from repro.core.pareto import pareto_front_2d
from repro.core.pareto_level import explore_pareto_level
from repro.core.selection import SelectionPolicy
from repro.core.simulate import SimulationEnvironment
from repro.core.taskgraph import Continuation, GraphProgress, TaskGraph, TaskNode
from repro.ddt.registry import combinations
from repro.net.config import NetworkConfig
from repro.net.tracestore import TraceStore, trace_fingerprints

__all__ = [
    "AppIncremental",
    "CampaignResult",
    "CampaignScheduler",
    "CrossAppPoint",
    "IncrementalReport",
    "MANIFEST_NAME",
    "RefinementChain",
]

#: File name of the campaign manifest, written next to the cache shards.
MANIFEST_NAME = "campaign-manifest.json"

ProgressCallback = Callable[[str, int, int, str], None]


class RefinementChain:
    """One application's three refinement steps, as task-graph nodes.

    ``nodes`` starts with the step-1 node; its continuation selects the
    survivors, then appends and enqueues the step-2 node.  Once the
    graph has run, :meth:`result` runs step 3 and the Table-1
    accounting.  The step functions are called through this module's
    names, so a wrapper installed on them sees every runner.
    """

    step1: Step1Result
    step2: Step2Result

    def __init__(
        self,
        app_cls: type[NetworkApplication],
        configs: Sequence[NetworkConfig],
        reference: NetworkConfig | None = None,
        candidates: Sequence[str] | None = None,
        policy: SelectionPolicy | None = None,
    ) -> None:
        self.app_cls = app_cls
        self.configs = list(configs)
        self.reference = reference if reference is not None else self.configs[0]
        self.candidates = candidates
        self.policy = policy
        points, details = step1_points(app_cls, self.reference, candidates)
        self.nodes = [
            self._node("application-level", points, details, self._step1_done)
        ]

    def _node(
        self,
        phase: str,
        points: Sequence[tuple[NetworkConfig, Mapping[str, str]]],
        details: Sequence[str],
        continuation: Continuation,
    ) -> TaskNode:
        name = self.app_cls.name
        return TaskNode(
            name=f"{name}/{phase}",
            app_cls=self.app_cls,
            points=list(points),
            details=[f"{name}: {detail}" for detail in details],
            phase=phase,
            continuation=continuation,
        )

    def _step1_done(self, records: Sequence[Any]) -> list[TaskNode]:
        self.step1 = finish_application_level(self.reference, records, self.policy)
        plan = plan_network_level(self.app_cls, self.step1, self.configs)

        def step2_done(records2: Sequence[Any]) -> None:
            self.step2 = finish_network_level(plan, records2)

        node = self._node("network-level", plan.points, plan.details, step2_done)
        self.nodes.append(node)
        return [node]

    def result(self) -> RefinementResult:
        """Step 3 and the Table-1 accounting of the completed chain."""
        return RefinementResult(
            app_name=self.app_cls.name,
            step1=self.step1,
            step2=self.step2,
            step3=explore_pareto_level(self.step2.log),
            exhaustive_simulations=exhaustive_simulation_count(
                self.app_cls, len(self.configs), self.candidates
            ),
            reduced_simulations=self.step1.simulations + self.step2.simulations,
        )


def _graph_progress(callback: ProgressCallback | None) -> GraphProgress | None:
    """Adapt ``(phase, done, total, detail)`` to the graph's node events.

    ``done`` and ``total`` count across every node of a phase; a
    phase's total grows as continuations enqueue step-2 nodes.
    """
    if callback is None:
        return None
    done: dict[str, int] = {}
    total: dict[str, int] = {}

    def inner(node: TaskNode, _done: int, _total: int, detail: str) -> None:
        phase = node.phase
        if node.total and node._done == 1:  # node's first emission
            total[phase] = total.get(phase, 0) + node.total
        done[phase] = done.get(phase, 0) + 1
        callback(phase, done[phase], total.get(phase, 0), detail)

    return inner


@dataclass(frozen=True)
class CrossAppPoint:
    """One point of the cross-app normalised time-energy front."""

    app_name: str
    combo_label: str
    #: Execution time / energy as fractions of the app's worst
    #: Pareto-optimal value on its reference configuration.
    time_frac: float
    energy_frac: float

    @property
    def label(self) -> str:
        """``"App:COMBO"`` tag used in reports."""
        return f"{self.app_name}:{self.combo_label}"


@dataclass(frozen=True)
class AppIncremental:
    """One application's share of an incremental campaign re-run."""

    app_name: str
    #: ``"new"`` (no manifest entry), ``"unchanged"`` (manifest entry
    #: identical -- the shard should replay) or ``"changed"`` (configs,
    #: combos, model or a touched trace profile differ -- the delta).
    status: str
    #: Points served from the persistent cache.
    reused: int
    #: Lane runs actually simulated this run.
    resimulated: int
    #: Points composed from this run's lane runs.
    composed: int


@dataclass
class IncrementalReport:
    """Reused-vs-resimulated accounting of one campaign run.

    Built from the per-node counters of the task graph plus the diff
    against the previously recorded manifest (when resuming).
    """

    apps: list[AppIncremental]

    @property
    def reused(self) -> int:
        """Cache-served points across every application."""
        return sum(app.reused for app in self.apps)

    @property
    def resimulated(self) -> int:
        """Freshly simulated lane runs across every application."""
        return sum(app.resimulated for app in self.apps)

    @property
    def composed(self) -> int:
        """Points composed from lane runs across every application."""
        return sum(app.composed for app in self.apps)

    def rows(self) -> list[tuple[str, str, int, int, int]]:
        """Report rows ``(app, status, reused, resimulated, composed)``."""
        return [
            (a.app_name, a.status, a.reused, a.resimulated, a.composed)
            for a in self.apps
        ]


@dataclass
class CampaignResult:
    """Everything a campaign produced, across applications.

    Attributes
    ----------
    refinements:
        Per-application :class:`RefinementResult`, in schedule order.
    stats:
        The engine's aggregate counters over the whole campaign
        (lane runs simulated, points composed, cache hits, batches).
    incremental:
        Per-app reused-vs-resimulated accounting.
    trace_counters:
        The shared trace store's satisfaction counters
        (``generations`` / ``disk_loads`` / ``memo_hits``), empty when
        the campaign ran without a store.
    quarantined:
        Worker ids the transport quarantined after repeated crashes
        (always empty for serial and local-pool runs).
    worker_stats:
        This run's per-worker dispatch records of a capacity-tracking
        transport (``{worker: {capacity, points, busy_s,
        throughput}}``; empty for serial and local-pool runs) -- the
        observable face of capacity-weighted dispatch.
    broker_outages:
        Broker outages the queue transport rode out by reconnecting
        mid-campaign (0 everywhere else) -- nonzero means the results
        survived at least one broker restart.
    """

    refinements: dict[str, RefinementResult]
    stats: EngineStats
    incremental: IncrementalReport
    trace_counters: dict[str, int] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)
    worker_stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    broker_outages: int = 0

    def __len__(self) -> int:
        return len(self.refinements)

    def summary_rows(self) -> list[tuple[str, int, int, int]]:
        """Table-1 rows (app, exhaustive, reduced, Pareto-optimal)."""
        return [r.summary_row() for r in self.refinements.values()]

    def total_reduced_simulations(self) -> int:
        """Methodology simulations across every application."""
        return sum(r.reduced_simulations for r in self.refinements.values())

    def total_exhaustive_simulations(self) -> int:
        """Brute-force simulation count across every application."""
        return sum(r.exhaustive_simulations for r in self.refinements.values())

    def pareto_summary(self) -> list[tuple[str, int, float, float, float, float]]:
        """Cross-app Table-2 view: per app, the Pareto choice count and
        the best trade-off range per metric (energy, time, accesses,
        footprint)."""
        rows = []
        for name, result in self.refinements.items():
            t = result.step3.trade_offs
            rows.append(
                (
                    name,
                    result.pareto_optimal_count,
                    t["energy_mj"],
                    t["time_s"],
                    t["accesses"],
                    t["footprint_bytes"],
                )
            )
        return rows

    def cross_app_front(self) -> list[CrossAppPoint]:
        """The campaign-wide normalised time-energy Pareto front.

        Each application's reference-configuration Pareto records are
        normalised by that application's worst Pareto-optimal value per
        metric (so apps with different absolute scales are comparable),
        then pooled into one 2D front.  The surviving points show which
        (app, combination) choices buy the steepest trade-offs across
        the whole campaign.
        """
        points: list[tuple[float, float]] = []
        tagged: list[CrossAppPoint] = []
        for name, result in self.refinements.items():
            ref = result.step1.reference_config.label
            records = result.step3.pareto_sets.get(ref, [])
            if not records:
                continue
            worst_t = max(r.metrics.time_s for r in records)
            worst_e = max(r.metrics.energy_mj for r in records)
            for record in records:
                t_frac = record.metrics.time_s / worst_t if worst_t > 0 else 0.0
                e_frac = record.metrics.energy_mj / worst_e if worst_e > 0 else 0.0
                points.append((t_frac, e_frac))
                tagged.append(
                    CrossAppPoint(
                        app_name=name,
                        combo_label=record.combo_label,
                        time_frac=t_frac,
                        energy_frac=e_frac,
                    )
                )
        front = pareto_front_2d(points)
        return [tagged[i] for i in sorted(front, key=lambda i: points[i])]


class CampaignScheduler:
    """Schedule many case studies through one exploration engine.

    Parameters
    ----------
    studies:
        Case studies (or their names) to campaign over; all four paper
        case studies by default.
    candidates:
        DDT names to explore per structure (full library by default) --
        shared across applications, like the paper's library.  An
        unknown or repeated name is refused here, as is an application
        left with no configuration.
    policy:
        Step-1 survivor selection policy shared by every application.
    configs:
        Optional per-app configuration override,
        ``{app_name: [NetworkConfig, ...]}`` -- what tests and
        benchmarks use to narrow the sweep.
    grids:
        Optional per-app sensitivity grids,
        ``{app_name: {param: [values, ...]}}``; each grid expands to
        extra configurations (via :meth:`CaseStudy.grid_configs`)
        appended after the paper sweep.  A configuration or grid that
        sets a parameter its app does not read (see
        :attr:`~repro.apps.base.NetworkApplication.param_defaults`) is
        refused here.
    env:
        Simulation environment template (ignored when ``engine`` is
        given).
    workers / cache / trace_store:
        Forwarded to the owned :class:`ExplorationEngine`; a path-like
        ``cache`` becomes a :class:`SimulationCache`
        (``<cache>/<app>/...``), and a path-like ``trace_store`` a
        :class:`~repro.net.tracestore.TraceStore` there.
    transport:
        Optional :class:`~repro.core.transport.WorkerTransport`
        forwarded to the owned engine -- a
        :class:`~repro.core.broker.QueueTransport` turns the campaign
        into a distributed coordinator.  Mutually exclusive
        with ``engine`` (give the transport to your own engine instead).
    engine:
        Bring-your-own engine; the scheduler then owns neither the pool
        nor the cache and will not close them.
    progress:
        Optional callback ``(phase, done, total, detail)``; ``done`` and
        ``total`` count across all applications of the phase (a phase's
        total grows as continuations enqueue step-2 grids).
    resume:
        Consult the previously written campaign manifest
        (``<cache dir>/campaign-manifest.json``, recorded by every run
        with a persistent cache) and report the per-app reuse delta
        (statuses ``unchanged``/``changed``/``new``) in
        :attr:`CampaignResult.incremental`.
    """

    def __init__(
        self,
        studies: Sequence[CaseStudy | str] | None = None,
        candidates: Sequence[str] | None = None,
        policy: SelectionPolicy | None = None,
        configs: Mapping[str, Sequence[NetworkConfig]] | None = None,
        grids: Mapping[str, Mapping[str, Sequence[Any]]] | None = None,
        env: SimulationEnvironment | None = None,
        workers: int = 0,
        cache: "SimulationCache | str | os.PathLike[str] | None" = None,
        trace_store: "TraceStore | str | os.PathLike[str] | None" = None,
        transport: "Any | None" = None,
        engine: ExplorationEngine | None = None,
        progress: ProgressCallback | None = None,
        resume: bool = False,
    ) -> None:
        chosen = list(studies) if studies is not None else list(CASE_STUDIES)
        self.studies: list[CaseStudy] = [
            case_study(s) if isinstance(s, str) else s for s in chosen
        ]
        if not self.studies:
            raise ValueError("a campaign needs at least one case study")
        names = [s.name for s in self.studies]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate case studies in campaign: {names}")
        self.candidates = list(candidates) if candidates is not None else None
        self.policy = policy
        self.grids = {k: dict(v) for k, v in (grids or {}).items()}
        self.progress = progress
        configs = configs or {}
        for mapping, what in ((configs, "configs"), (self.grids, "grids")):
            unknown = set(mapping) - set(names)
            if unknown:
                raise ValueError(f"{what} for unknown apps: {sorted(unknown)}")
        self._configs: dict[str, list[NetworkConfig]] = {}
        for study in self.studies:
            base = list(configs.get(study.name, study.configs))
            if study.name in self.grids:
                base += list(study.grid_configs(self.grids[study.name]))
            # A grid value may repeat a base-sweep configuration (e.g.
            # --grid route:radix_size=128,512): keep the first occurrence
            # so no (combo, config) point is scheduled twice.
            self._configs[study.name] = list(
                {c.label: c for c in base}.values()
            )
            if not self._configs[study.name]:
                raise ValueError(f"{study.name}: no configurations to explore")
            study.app_cls.check_params(key for c in base for key in c.app_params)
            # Refuses an unknown or repeated candidate DDT now, not at run().
            combinations(study.app_cls.dominant_structures, self.candidates)

        if engine is not None:
            if transport is not None:
                raise ValueError(
                    "pass the transport to your own engine, not the scheduler"
                )
            self.engine = engine
            self._owns_engine = False
        else:
            self.engine = ExplorationEngine(
                env=env,
                workers=workers,
                cache=cache,
                trace_store=trace_store,
                transport=transport,
            )
            self._owns_engine = True
        self.resume = resume
        engine_cache = self.engine.cache
        self._manifest_path: str | None = (
            os.path.join(engine_cache.directory, MANIFEST_NAME)
            if engine_cache is not None
            else None
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the owned engine down (no-op for a supplied engine)."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def configs_for(self, name: str) -> list[NetworkConfig]:
        """The scheduled configurations of one application."""
        return list(self._configs[name])

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        """Execute the campaign as one dependency-aware task graph."""
        engine = self.engine
        graph = TaskGraph(engine, progress=_graph_progress(self.progress))
        chains: dict[str, RefinementChain] = {}
        for study in self.studies:
            chain = chains[study.name] = RefinementChain(
                study.app_cls,
                self._configs[study.name],
                candidates=self.candidates,
                policy=self.policy,
            )
            graph.add(chain.nodes[0])
        graph.run()

        refinements = {name: chain.result() for name, chain in chains.items()}
        # Without a manifest to write or diff against, entry construction
        # (fingerprints + combo enumeration) would be discarded work.
        entries = (
            self.manifest_entries()
            if self._manifest_path is not None or self.resume
            else {}
        )
        incremental = self._incremental_report(chains, entries)
        self._write_manifest(entries)
        store = engine.trace_store
        transport = engine.transport()
        return CampaignResult(
            refinements=refinements,
            stats=engine.stats,
            trace_counters=store.counters() if store is not None else {},
            incremental=incremental,
            quarantined=list(transport.quarantined),
            worker_stats=transport.worker_stats(),
            broker_outages=transport.outages,
        )

    # ------------------------------------------------------------------
    # manifest + incremental accounting
    # ------------------------------------------------------------------
    def _scope(self, name: str) -> tuple[str, ...]:
        """Trace names one app's sweep touches (its fingerprint scope)."""
        return tuple(dict.fromkeys(c.trace_name for c in self._configs[name]))

    def manifest_entries(self) -> dict[str, dict[str, Any]]:
        """The per-app manifest payload of the *current* schedule.

        Each entry pins everything that determines an application's
        records: the app-scoped model fingerprint, the scheduled config
        labels, the step-1 combination labels (the candidate library
        crossed over the app's dominant structures) and the fingerprint
        of every trace profile the sweep touches.
        """
        entries: dict[str, dict[str, Any]] = {}
        for study in self.studies:
            scope = self._scope(study.name)
            _points, combo_labels = step1_points(
                study.app_cls, self._configs[study.name][0], self.candidates
            )
            entries[study.name] = {
                "fingerprint": self.engine.fingerprint_for(scope),
                "configs": [c.label for c in self._configs[study.name]],
                "combos": combo_labels,
                "traces": trace_fingerprints(scope),
            }
        return entries

    def _manifest_payload(self) -> dict[str, Any]:
        """The raw recorded manifest payload (empty when absent/stale)."""
        path = self._manifest_path
        if path is None or not os.path.exists(path):
            return {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return {}  # unreadable manifest: treat as a fresh campaign
        if not isinstance(payload, dict) or payload.get("version") != 1:
            return {}
        return payload

    def _previous_manifest(self) -> dict[str, dict[str, Any]]:
        """Load the last recorded per-app entries (empty when absent)."""
        apps = self._manifest_payload().get("apps", {})
        return apps if isinstance(apps, dict) else {}

    def _write_manifest(self, entries: Mapping[str, Any]) -> None:
        """Record this run's per-app entries over the recorded ones.

        An app this run does not schedule keeps its entry, so a narrower
        run does not turn it ``new`` for the next ``resume``.  Any other
        key an older build wrote is dropped here; reading
        (:meth:`_previous_manifest`) already ignores it.
        """
        path = self._manifest_path
        if path is None:
            return
        payload = {"version": 1, "apps": {**self._previous_manifest(), **entries}}
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # Per-process tmp name: campaigns sharing one --cache must never
        # interleave writes into (or rename away) each other's tmp file.
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)

    def _incremental_report(
        self,
        chains: Mapping[str, RefinementChain],
        current: Mapping[str, Any],
    ) -> IncrementalReport:
        previous = self._previous_manifest() if self.resume else {}
        apps = []
        for study in self.studies:
            nodes = chains[study.name].nodes
            if study.name not in previous:
                status = "new"
            elif previous[study.name] == current[study.name]:
                status = "unchanged"
            else:
                status = "changed"
            apps.append(
                AppIncremental(
                    app_name=study.name,
                    status=status,
                    reused=sum(node.cache_hits for node in nodes),
                    resimulated=sum(node.simulations for node in nodes),
                    composed=sum(node.composed for node in nodes),
                )
            )
        return IncrementalReport(apps=apps)
