"""Single-simulation runner.

"By using the term simulation we mean an execution of an application
under study using as input a network trace" (paper Section 3.1).  This
module runs exactly that: one application, one DDT assignment, one
network configuration, producing a :class:`SimulationRecord`.  An
assignment may give a structure a tuple of DDTs (lanes); the one run
then prices every (structure, DDT) pair it names.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from repro.apps.base import NetworkApplication
from repro.core.results import SimulationRecord
from repro.ddt.registry import combination_label, lane_names
from repro.memory.cacti import CactiModel
from repro.memory.profiler import MemoryProfiler
from repro.memory.timing import OperationCosts
from repro.net.config import NetworkConfig
from repro.net.trace import Trace
from repro.net.tracestore import TraceStore

__all__ = ["run_simulation", "SimulationEnvironment"]


class SimulationEnvironment:
    """Shared, reusable pieces of a batch of simulations.

    Caches generated traces per configuration and carries the
    energy/timing model parameters so every simulation of an exploration
    runs under identical conditions.

    Parameters
    ----------
    cacti:
        Energy/latency model shared across simulations (it is stateless
        apart from its memo cache, so sharing is safe and fast).
    costs:
        CPU operation cost table.
    trace_store:
        Optional :class:`~repro.net.tracestore.TraceStore` to source
        traces from; a persistent store lets the environment load
        pre-generated traces from disk instead of regenerating them
        (what pool workers hydrate through).  Traces are identical
        either way, so results do not depend on this.
    """

    def __init__(
        self,
        cacti: CactiModel | None = None,
        costs: OperationCosts | None = None,
        trace_store: TraceStore | None = None,
    ) -> None:
        self.cacti = cacti if cacti is not None else CactiModel()
        self.costs = costs if costs is not None else OperationCosts()
        self.trace_store = trace_store
        self._trace_cache: dict[str, Trace] = {}

    def trace_for(self, config: NetworkConfig) -> Trace:
        """The configuration's trace, generated once and cached."""
        trace = self._trace_cache.get(config.trace_name)
        if trace is None:
            if self.trace_store is not None:
                trace = self.trace_store.get(config.trace_name)
            else:
                trace = config.load_trace()
            self._trace_cache[config.trace_name] = trace
        return trace


def run_simulation(
    app_cls: type[NetworkApplication],
    config: NetworkConfig,
    assignment: Mapping[str, str | Sequence[str]],
    env: SimulationEnvironment | None = None,
) -> SimulationRecord:
    """Simulate one (application, DDT assignment, configuration) point.

    Returns the four metrics plus the functional stats.  The paper
    averages 10 runs per point; this simulator is deterministic, so one
    run gives the same metrics.  The record carries the run's per-pool
    :class:`~repro.memory.profiler.ProfileParts`, which the exploration
    engine composes other DDT combinations from.

    With a tuple of DDTs (lanes) for some structure, the record is the
    one of the *first-lane* combination -- equal to a plain run of it on
    ``content_key()`` -- and its parts hold every (structure, DDT) part
    of the run.
    """
    env = env if env is not None else SimulationEnvironment()
    trace = env.trace_for(config)
    first = {structure: ddts[0] for structure, ddts in lane_names(assignment).items()}

    started = time.perf_counter()
    profiler = MemoryProfiler(cacti=env.cacti, costs=env.costs)
    app = app_cls(config, assignment, profiler)
    stats = app.run(trace)
    parts = profiler.parts()
    metrics = parts.select(first).metrics()
    wall = time.perf_counter() - started

    return SimulationRecord(
        app_name=app_cls.name,
        config_label=config.label,
        combo_label=combination_label(first, app_cls.dominant_structures),
        metrics=metrics,
        stats=dict(stats),
        wall_time_s=wall,
        parts=parts,
    )
