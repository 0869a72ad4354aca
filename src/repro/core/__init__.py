"""The paper's contribution: the 3-step DDT refinement methodology.

* Step 1 -- :mod:`repro.core.application_level`: exhaustive combination
  exploration on a reference configuration + survivor selection.
* Step 2 -- :mod:`repro.core.network_level`: survivors x network
  configurations.
* Step 3 -- :mod:`repro.core.pareto_level`: Pareto pruning and curves.

:class:`~repro.core.campaign.RefinementChain` chains the steps, for
one application (:class:`~repro.core.methodology.DDTRefinement`) or a
whole campaign; :mod:`repro.core.casestudies` instantiates the paper's
four case studies.
"""

from repro.core.application_level import (
    Step1Result,
    explore_application_level,
    finish_application_level,
    profile_dominant_structures,
    step1_points,
)
from repro.core.broker import (
    BrokerClient,
    EmbeddedBroker,
    QueueTransport,
    serve_queue_worker,
)
from repro.core.campaign import (
    AppIncremental,
    CampaignResult,
    CampaignScheduler,
    CrossAppPoint,
    IncrementalReport,
)
from repro.core.constraints import (
    ConstraintReport,
    DesignConstraints,
    feasible_records,
    recommend,
)
from repro.core.casestudies import CASE_STUDIES, CaseStudy, case_study, case_study_names
from repro.core.engine import (
    EngineStats,
    EnvSpec,
    ExplorationEngine,
    SimulationCache,
    model_fingerprint,
)
from repro.core.methodology import DDTRefinement, RefinementResult
from repro.core.metrics import METRIC_NAMES, MetricVector
from repro.core.network_level import (
    Step2Plan,
    Step2Result,
    explore_network_level,
    finish_network_level,
    plan_network_level,
)
from repro.core.pareto import (
    ParetoCurve,
    ParetoPoint,
    pareto_front_2d,
    pareto_indices,
    trade_off_range,
)
from repro.core.pareto_level import Step3Result, curve_for, explore_pareto_level, pareto_records
from repro.core.taskgraph import TaskGraph, TaskNode
from repro.core.transport import (
    LocalPoolTransport,
    TransportError,
    WorkerTransport,
)
from repro.core.reporting import (
    baseline_comparison,
    comparison_report,
    render_table,
    table1_report,
    table2_report,
)
from repro.core.results import ExplorationLog, SimulationRecord
from repro.core.selection import (
    NearBestUnion,
    ParetoSelection,
    QuantileUnion,
    SelectionPolicy,
    TopKPerMetric,
)
from repro.core.sensitivity import (
    RegretEntry,
    regret_table,
    robust_choice,
    robust_choices,
    winner_diversity,
    winners_by_config,
)
from repro.core.simulate import SimulationEnvironment, run_simulation

__all__ = [
    "AppIncremental",
    "BrokerClient",
    "CASE_STUDIES",
    "CampaignResult",
    "CampaignScheduler",
    "CaseStudy",
    "ConstraintReport",
    "CrossAppPoint",
    "DDTRefinement",
    "DesignConstraints",
    "EmbeddedBroker",
    "EngineStats",
    "EnvSpec",
    "ExplorationEngine",
    "ExplorationLog",
    "IncrementalReport",
    "LocalPoolTransport",
    "METRIC_NAMES",
    "MetricVector",
    "NearBestUnion",
    "ParetoCurve",
    "ParetoPoint",
    "ParetoSelection",
    "QuantileUnion",
    "QueueTransport",
    "RefinementResult",
    "RegretEntry",
    "SelectionPolicy",
    "SimulationCache",
    "SimulationEnvironment",
    "SimulationRecord",
    "Step1Result",
    "Step2Plan",
    "Step2Result",
    "Step3Result",
    "TaskGraph",
    "TaskNode",
    "TopKPerMetric",
    "TransportError",
    "WorkerTransport",
    "baseline_comparison",
    "case_study",
    "case_study_names",
    "comparison_report",
    "curve_for",
    "explore_application_level",
    "explore_network_level",
    "explore_pareto_level",
    "feasible_records",
    "finish_application_level",
    "finish_network_level",
    "model_fingerprint",
    "pareto_front_2d",
    "pareto_indices",
    "pareto_records",
    "plan_network_level",
    "profile_dominant_structures",
    "recommend",
    "regret_table",
    "render_table",
    "robust_choice",
    "robust_choices",
    "run_simulation",
    "serve_queue_worker",
    "step1_points",
    "table1_report",
    "table2_report",
    "trade_off_range",
    "winner_diversity",
    "winners_by_config",
]
