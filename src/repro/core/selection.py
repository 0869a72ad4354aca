"""Step-1/step-2 combination filtering policies.

After simulating all DDT combinations on the reference configuration,
step 1 "automatically keep[s] the combinations, which have the lowest
energy consumption, shortest execution time, lowest memory footprint and
lower memory accesses", discarding ~80% of the space.  The paper does
not pin the exact rule, so the policy is pluggable:

* :class:`QuantileUnion` (default) -- keep a combination if it ranks in
  the best :data:`DEFAULT_QUANTILE` of *at least one* metric, plus the
  4D Pareto-optimal set; this retains roughly the paper's 20%.
* :class:`NearBestUnion` -- keep a combination if it is within a
  tolerance of the per-metric best for at least one metric.
* :class:`ParetoSelection` -- keep the 4D non-dominated set.
* :class:`TopKPerMetric` -- keep the k best combinations per metric.

All policies guarantee the per-metric best combinations survive, so the
step-3 Pareto extremes are never lost by the reduction (the property
the paper's stepwise pruning relies on, asserted in the test suite).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.metrics import METRIC_NAMES
from repro.core.pareto import pareto_indices
from repro.core.results import ExplorationLog

__all__ = [
    "DEFAULT_QUANTILE",
    "SelectionPolicy",
    "NearBestUnion",
    "ParetoSelection",
    "QuantileUnion",
    "TopKPerMetric",
]

#: :class:`QuantileUnion`'s survivor quantile, the one the library and
#: both ``ddt-explore`` parsers default to.
DEFAULT_QUANTILE = 0.05


class SelectionPolicy(ABC):
    """Maps a single-configuration log to the surviving combo labels."""

    @abstractmethod
    def select(self, log: ExplorationLog) -> list[str]:
        """Return the surviving combination labels, in log order."""

    def _require_single_config(self, log: ExplorationLog) -> None:
        configs = log.configs()
        if len(configs) > 1:
            raise ValueError(
                f"selection expects a single-configuration log, got {configs}"
            )


class NearBestUnion(SelectionPolicy):
    """Keep combos within ``tolerance`` of the best in >= 1 metric.

    ``tolerance=0.0`` keeps only the per-metric winners; larger values
    keep more of the space.  The default is calibrated to retain roughly
    20% of combinations on the four case studies (paper Table 1).
    """

    def __init__(self, tolerance: float = 0.25) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        self.tolerance = tolerance

    def select(self, log: ExplorationLog) -> list[str]:
        """Keep combos within the relative tolerance of any metric's best."""
        self._require_single_config(log)
        records = log.records
        if not records:
            return []
        limits = {
            metric: min(r.metrics.get(metric) for r in records) * (1 + self.tolerance)
            for metric in METRIC_NAMES
        }
        kept: list[str] = []
        for record in records:
            if any(
                record.metrics.get(metric) <= limits[metric] for metric in METRIC_NAMES
            ):
                kept.append(record.combo_label)
        return kept

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NearBestUnion(tolerance={self.tolerance})"


class QuantileUnion(SelectionPolicy):
    """Keep combos ranked in the best ``quantile`` of >= 1 metric.

    This is the library default: robust to how wide the metric spread of
    an application happens to be (a fixed relative tolerance keeps
    everything when spreads are tight and nothing when they are wide).
    The 4D Pareto-optimal combinations are always retained on top, so
    the reduction can never lose a point of the final fronts.

    The default quantile is calibrated so roughly 20% of combinations
    survive across the four case studies -- the paper's "this procedure
    will discard approximately 80% of the available DDT combinations".
    """

    def __init__(
        self, quantile: float = DEFAULT_QUANTILE, keep_pareto: bool = True
    ) -> None:
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        self.quantile = quantile
        self.keep_pareto = keep_pareto

    def select(self, log: ExplorationLog) -> list[str]:
        """Keep combos in the best quantile of any metric (+ Pareto set)."""
        self._require_single_config(log)
        records = log.records
        if not records:
            return []
        rank = max(1, round(self.quantile * len(records)))
        winners: set[str] = set()
        for metric in METRIC_NAMES:
            ranked = sorted(records, key=lambda r: r.metrics.get(metric))
            threshold = ranked[rank - 1].metrics.get(metric)
            winners.update(
                r.combo_label for r in records if r.metrics.get(metric) <= threshold
            )
        if self.keep_pareto:
            points = [r.metrics.as_tuple() for r in records]
            winners.update(records[i].combo_label for i in pareto_indices(points))
        return [r.combo_label for r in records if r.combo_label in winners]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuantileUnion(quantile={self.quantile})"


class ParetoSelection(SelectionPolicy):
    """Keep the 4D non-dominated combinations."""

    def select(self, log: ExplorationLog) -> list[str]:
        """Keep exactly the 4D non-dominated combinations."""
        self._require_single_config(log)
        records = log.records
        if not records:
            return []
        points = [r.metrics.as_tuple() for r in records]
        return [records[i].combo_label for i in pareto_indices(points)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ParetoSelection()"


class TopKPerMetric(SelectionPolicy):
    """Keep the union of the k best combinations per metric."""

    def __init__(self, k: int = 5) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def select(self, log: ExplorationLog) -> list[str]:
        """Keep the union of the k best combinations per metric."""
        self._require_single_config(log)
        records = log.records
        if not records:
            return []
        winners: set[str] = set()
        for metric in METRIC_NAMES:
            ranked = sorted(records, key=lambda r: r.metrics.get(metric))
            winners.update(r.combo_label for r in ranked[: self.k])
        return [r.combo_label for r in records if r.combo_label in winners]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TopKPerMetric(k={self.k})"
