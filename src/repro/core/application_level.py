"""Step 1 -- application-level DDT exploration.

"We explore the DDTs at the application-level, in order to find the
optimal DDT combinations for the dynamic data access behavior of the
application under study" (paper Section 3.1): simulate *every*
combination of library DDTs over the application's dominant structures
on a reference configuration, then discard the ~80% of combinations
that are near-best in no metric.

Profiling (the paper's first sub-step, which identifies the dominant
structures) is represented by :func:`profile_dominant_structures`, which
runs the application once and reports per-structure access counts -- the
structures are declared by the application class, mirroring the one-off
instrumentation the paper inserts into the benchmark source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.apps.base import NetworkApplication
from repro.core.engine import ExplorationEngine
from repro.core.results import ExplorationLog, SimulationRecord
from repro.core.selection import QuantileUnion, SelectionPolicy
from repro.core.simulate import SimulationEnvironment
from repro.ddt.registry import combination_label, combinations
from repro.memory.profiler import MemoryProfiler
from repro.net.config import NetworkConfig

__all__ = [
    "Step1Result",
    "explore_application_level",
    "finish_application_level",
    "profile_dominant_structures",
    "step1_points",
]

ProgressCallback = Callable[[int, int, str], None]


@dataclass
class Step1Result:
    """Outcome of the application-level exploration.

    Attributes
    ----------
    log:
        One record per simulated combination (reference configuration).
    survivors:
        Combination labels kept by the selection policy.
    reference_config:
        The configuration the exhaustive pass ran on.
    simulations:
        Number of simulations performed (== combinations explored).
    """

    log: ExplorationLog
    survivors: list[str]
    reference_config: NetworkConfig
    simulations: int

    @property
    def discarded_fraction(self) -> float:
        """Fraction of combinations the filter discarded (paper: ~0.8)."""
        total = len(self.log)
        if total == 0:
            return 0.0
        return 1.0 - len(self.survivors) / total


def profile_dominant_structures(
    app_cls: type[NetworkApplication],
    config: NetworkConfig,
    env: SimulationEnvironment | None = None,
) -> dict[str, int]:
    """Run the app once and report accesses per dominant structure.

    The paper attaches "a profile object" to each candidate structure
    and runs typical traces; "the profiling reveals the dominant data
    structures of the application (i.e. the ones that are accessed the
    most)".  Returns ``{structure_name: accesses}`` sorted descending,
    so the caller can see the dominance ranking the methodology builds
    on.
    """
    env = env if env is not None else SimulationEnvironment()
    profiler = MemoryProfiler(cacti=env.cacti, costs=env.costs)
    assignment = {name: "SLL" for name in app_cls.dominant_structures}
    app = app_cls(config, assignment, profiler)
    app.run(env.trace_for(config))
    counts = {pool.name: pool.accesses for pool in profiler.pools}
    return dict(sorted(counts.items(), key=lambda kv: kv[1], reverse=True))


def step1_points(
    app_cls: type[NetworkApplication],
    reference_config: NetworkConfig,
    candidates: Sequence[str] | None = None,
) -> tuple[list[tuple[NetworkConfig, dict[str, str]]], list[str]]:
    """The exhaustive step-1 batch: (config, assignment) points + details.

    Split out of :func:`explore_application_level` so callers can lay a
    step-1 batch out without running it:
    :class:`~repro.core.campaign.RefinementChain` turns these points
    into a :class:`~repro.core.taskgraph.TaskNode` whose continuation
    feeds :func:`finish_application_level` and enqueues the step-2 grid
    as soon as the survivors are known.
    """
    combos = list(combinations(app_cls.dominant_structures, candidates))
    points = [(reference_config, combo) for combo in combos]
    details = [
        combination_label(combo, app_cls.dominant_structures) for combo in combos
    ]
    return points, details


def finish_application_level(
    reference_config: NetworkConfig,
    records: Sequence[SimulationRecord],
    policy: SelectionPolicy | None = None,
) -> Step1Result:
    """Select survivors from the evaluated step-1 batch.

    ``records`` is the engine's output for :func:`step1_points`, in
    point order; the pairing with :func:`step1_points` reproduces
    :func:`explore_application_level` exactly.
    """
    policy = policy if policy is not None else QuantileUnion()
    log = ExplorationLog(records)
    survivors = policy.select(log)
    return Step1Result(
        log=log,
        survivors=survivors,
        reference_config=reference_config,
        simulations=len(log),
    )


def explore_application_level(
    app_cls: type[NetworkApplication],
    reference_config: NetworkConfig,
    candidates: Sequence[str] | None = None,
    policy: SelectionPolicy | None = None,
    env: SimulationEnvironment | None = None,
    progress: ProgressCallback | None = None,
    engine: ExplorationEngine | None = None,
) -> Step1Result:
    """Exhaustively explore DDT combinations on the reference config.

    Parameters
    ----------
    app_cls:
        The application under study.
    reference_config:
        The "typical input trace" configuration of the paper's step 1.
    candidates:
        DDT names to consider per structure (full library by default).
    policy:
        Survivor selection policy (default :class:`QuantileUnion`).
    env:
        Shared simulation environment (ignored when ``engine`` is given:
        the engine's own environment wins).
    progress:
        Optional callback ``(done, total, combo_label)`` for CLI
        progress display.
    engine:
        Exploration engine carrying the worker pool and persistent
        cache; a serial uncached engine over ``env`` by default.
    """
    engine = engine if engine is not None else ExplorationEngine(env=env)
    points, details = step1_points(app_cls, reference_config, candidates)
    records = engine.run_batch(app_cls, points, progress=progress, details=details)
    return finish_application_level(reference_config, records, policy)
