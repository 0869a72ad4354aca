"""The 3-step DDT refinement methodology, end to end.

:class:`DDTRefinement` runs the three exploration steps (Figure 1 of
the paper) for one application and one configuration sweep, tracking the
simulation counts Table 1 reports:

* **exhaustive** -- combinations x configurations (what a brute-force
  exploration would cost);
* **reduced** -- step-1 simulations + survivors x remaining
  configurations (what the stepwise methodology costs);
* **pareto_optimal** -- the design choices finally offered.

The steps are chained in one place,
:class:`~repro.core.campaign.RefinementChain`: a :class:`DDTRefinement`
is a task graph with one chain, a campaign one graph with a chain per
application, and both key every record by its trace-scoped fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.apps.base import NetworkApplication
from repro.core.application_level import Step1Result
from repro.core.engine import ExplorationEngine
from repro.core.network_level import Step2Result
from repro.core.pareto_level import Step3Result
from repro.core.selection import SelectionPolicy
from repro.core.simulate import SimulationEnvironment
from repro.core.taskgraph import TaskGraph
from repro.ddt.registry import all_ddt_names
from repro.net.config import NetworkConfig

__all__ = ["RefinementResult", "DDTRefinement", "exhaustive_simulation_count"]


def exhaustive_simulation_count(
    app_cls: type[NetworkApplication],
    n_configs: int,
    candidates: Sequence[str] | None = None,
) -> int:
    """Combinations x configurations -- the brute-force exploration cost.

    The "exhaustive" column of Table 1.
    """
    n_candidates = len(candidates) if candidates is not None else len(all_ddt_names())
    return n_candidates ** len(app_cls.dominant_structures) * n_configs

ProgressCallback = Callable[[str, int, int, str], None]


@dataclass
class RefinementResult:
    """Everything the three steps produced, plus Table-1 accounting."""

    app_name: str
    step1: Step1Result
    step2: Step2Result
    step3: Step3Result
    exhaustive_simulations: int
    reduced_simulations: int

    @property
    def pareto_optimal_count(self) -> int:
        """Distinct combinations on the reference time-energy front."""
        return len(self.step3.pareto_optimal_combos())

    @property
    def reduction_fraction(self) -> float:
        """Fraction of simulations saved vs. exhaustive (paper: ~80%)."""
        if self.exhaustive_simulations == 0:
            return 0.0
        return 1.0 - self.reduced_simulations / self.exhaustive_simulations

    def summary_row(self) -> tuple[str, int, int, int]:
        """(application, exhaustive, reduced, pareto-optimal) -- Table 1."""
        return (
            self.app_name,
            self.exhaustive_simulations,
            self.reduced_simulations,
            self.pareto_optimal_count,
        )


class DDTRefinement:
    """Orchestrates the 3-step methodology for one application.

    Parameters
    ----------
    app_cls:
        Application under study.
    configs:
        The network configurations of step 2 (trace x app parameters);
        a parameter the app does not read is a :class:`ValueError`.
    reference_config:
        Step-1 configuration (checked alike); defaults to the first of
        ``configs``.
    candidates:
        DDT names to explore per structure (full 10-DDT library by
        default).
    policy:
        Step-1 survivor selection policy.
    env:
        Shared simulation environment (energy model, costs, caching).
        Ignored when ``engine`` is given -- the engine's environment is
        the single source of model parameters.
    progress:
        Optional callback ``(step, done, total, detail)``; a step's
        ``total`` counts the points its task-graph node resolves, so
        step-1 records step 2 reuses are not progress events.
    engine:
        :class:`~repro.core.engine.ExplorationEngine` carrying the
        worker pool and persistent simulation cache; a serial uncached
        engine over ``env`` by default, so the methodology behaves
        exactly as before when no engine is supplied.
    """

    def __init__(
        self,
        app_cls: type[NetworkApplication],
        configs: Sequence[NetworkConfig],
        reference_config: NetworkConfig | None = None,
        candidates: Sequence[str] | None = None,
        policy: SelectionPolicy | None = None,
        env: SimulationEnvironment | None = None,
        progress: ProgressCallback | None = None,
        engine: ExplorationEngine | None = None,
    ) -> None:
        if not configs:
            raise ValueError("configs must not be empty")
        self.app_cls = app_cls
        self.configs = list(configs)
        self.reference_config = (
            reference_config if reference_config is not None else self.configs[0]
        )
        app_cls.check_params(
            key for c in (*self.configs, self.reference_config) for key in c.app_params
        )
        self.candidates = list(candidates) if candidates is not None else None
        self.policy = policy
        if engine is not None:
            self.engine = engine
        else:
            self.engine = ExplorationEngine(env=env)
        self.env = self.engine.env
        self.progress = progress

    # ------------------------------------------------------------------
    def run(self) -> RefinementResult:
        """Execute steps 1-3 and assemble the result.

        Runs one :class:`~repro.core.campaign.RefinementChain` on a task
        graph: the chain, progress adapter and cache keys a campaign
        uses, so single-app runs and campaigns share cache shards.
        """
        # Imported here: repro.core.campaign imports this module.
        from repro.core.campaign import RefinementChain, _graph_progress

        chain = RefinementChain(
            self.app_cls,
            self.configs,
            self.reference_config,
            self.candidates,
            self.policy,
        )
        graph = TaskGraph(self.engine, progress=_graph_progress(self.progress))
        graph.add(chain.nodes[0])
        graph.run()
        return chain.result()
