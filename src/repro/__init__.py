"""repro -- Dynamic Data Type refinement for network applications.

A reproduction of Bartzas et al., "Dynamic Data Type Refinement
Methodology for Systematic Performance-Energy Design Exploration of
Network Applications" (DATE 2006): a 10-implementation dynamic-data-type
library with full cost instrumentation, four NetBench-style network
applications, a synthetic trace substrate, and the paper's 3-step
exploration methodology producing Pareto-optimal energy/time/accesses/
footprint trade-offs.

Quickstart::

    from repro import case_study

    result = case_study("URL").refinement().run()
    print(result.summary_row())
    for combo in result.step3.pareto_optimal_combos():
        print(combo)
"""

from repro.core import (
    CASE_STUDIES,
    CampaignResult,
    CampaignScheduler,
    CaseStudy,
    DDTRefinement,
    DesignConstraints,
    ExplorationEngine,
    ExplorationLog,
    MetricVector,
    EmbeddedBroker,
    NearBestUnion,
    ParetoSelection,
    QuantileUnion,
    QueueTransport,
    RefinementResult,
    SimulationCache,
    SimulationEnvironment,
    SimulationRecord,
    case_study,
    case_study_names,
    recommend,
    robust_choice,
    run_simulation,
    winner_diversity,
)
from repro.apps import ALL_APPS, DrrApp, IpchainsApp, RouteApp, UrlApp
from repro.ddt import DDT_LIBRARY, ORIGINAL_DDT, RecordSpec, all_ddt_names, ddt_class
from repro.memory import CactiModel, MemoryProfiler
from repro.net import NetworkConfig, TraceStore, generate_trace, profile, trace_names

__version__ = "1.0.0"

__all__ = [
    "ALL_APPS",
    "CASE_STUDIES",
    "CactiModel",
    "CampaignResult",
    "CampaignScheduler",
    "CaseStudy",
    "DDTRefinement",
    "DDT_LIBRARY",
    "DesignConstraints",
    "DrrApp",
    "EmbeddedBroker",
    "ExplorationEngine",
    "ExplorationLog",
    "IpchainsApp",
    "MemoryProfiler",
    "MetricVector",
    "NearBestUnion",
    "NetworkConfig",
    "ORIGINAL_DDT",
    "ParetoSelection",
    "QuantileUnion",
    "QueueTransport",
    "RecordSpec",
    "RefinementResult",
    "RouteApp",
    "SimulationCache",
    "SimulationEnvironment",
    "SimulationRecord",
    "TraceStore",
    "UrlApp",
    "all_ddt_names",
    "case_study",
    "case_study_names",
    "ddt_class",
    "generate_trace",
    "profile",
    "recommend",
    "robust_choice",
    "run_simulation",
    "trace_names",
    "winner_diversity",
    "__version__",
]
