"""The four exploration metrics and Pareto-dominance over them.

Every simulation in the methodology produces one :class:`MetricVector`
holding the paper's four cost metrics -- dissipated energy, execution
time, memory accesses and memory footprint.  All four are "lower is
better", which keeps dominance simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["METRIC_NAMES", "MetricVector"]

#: Canonical metric order used in logs, reports and CSV exports.
METRIC_NAMES: tuple[str, str, str, str] = (
    "energy_mj",
    "time_s",
    "accesses",
    "footprint_bytes",
)


@dataclass(frozen=True)
class MetricVector:
    """One simulation's cost in the four explored metrics.

    Attributes
    ----------
    energy_mj:
        Dissipated energy in millijoules (memory subsystem, CACTI-derived).
    time_s:
        Simulated execution time in seconds.
    accesses:
        Number of modelled memory accesses (word reads + word writes).
    footprint_bytes:
        Peak memory footprint in bytes, including allocator overhead.
    """

    energy_mj: float
    time_s: float
    accesses: int
    footprint_bytes: int

    def __post_init__(self) -> None:
        if self.energy_mj < 0:
            raise ValueError("energy_mj must be >= 0")
        if self.time_s < 0:
            raise ValueError("time_s must be >= 0")
        if self.accesses < 0:
            raise ValueError("accesses must be >= 0")
        if self.footprint_bytes < 0:
            raise ValueError("footprint_bytes must be >= 0")

    # ------------------------------------------------------------------
    # tuple-like access
    # ------------------------------------------------------------------
    def as_tuple(self) -> tuple[float, float, int, int]:
        """Return the metrics in :data:`METRIC_NAMES` order."""
        return (self.energy_mj, self.time_s, self.accesses, self.footprint_bytes)

    def __iter__(self) -> Iterator[float]:
        return iter(self.as_tuple())

    def get(self, name: str) -> float:
        """Look one metric up by its :data:`METRIC_NAMES` name."""
        if name not in METRIC_NAMES:
            raise KeyError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
        return getattr(self, name)

    # ------------------------------------------------------------------
    # dominance
    # ------------------------------------------------------------------
    def dominates(self, other: "MetricVector") -> bool:
        """True if self is <= other in every metric and < in at least one.

        This is the Pareto-dominance relation of the paper: a point is
        Pareto-optimal "if it is no longer possible to improve upon one
        cost factor without worsening any other".
        """
        mine = self.as_tuple()
        theirs = other.as_tuple()
        no_worse = all(a <= b for a, b in zip(mine, theirs))
        strictly_better = any(a < b for a, b in zip(mine, theirs))
        return no_worse and strictly_better

    def weakly_dominates(self, other: "MetricVector") -> bool:
        """True if self is <= other in every metric (ties allowed)."""
        return all(a <= b for a, b in zip(self.as_tuple(), other.as_tuple()))

    # ------------------------------------------------------------------
    # arithmetic helpers
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "MetricVector":
        """Return a copy with every metric multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        return MetricVector(
            energy_mj=self.energy_mj * factor,
            time_s=self.time_s * factor,
            accesses=round(self.accesses * factor),
            footprint_bytes=round(self.footprint_bytes * factor),
        )
