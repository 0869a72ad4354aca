"""Simulation records and exploration logs.

Every simulation of the exploration produces one
:class:`SimulationRecord`; an :class:`ExplorationLog` collects them with
the grouping/lookup operations steps 2-3 need, plus CSV persistence
(the scaled-down equivalent of the paper's "Gigabytes of log files"
consumed by the Perl post-processing tool).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from repro.core.metrics import METRIC_NAMES, MetricVector

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.memory.profiler import ProfileParts

__all__ = ["SimulationRecord", "ExplorationLog"]


@dataclass(frozen=True)
class SimulationRecord:
    """Result of simulating one (application, DDT combination, config).

    Attributes
    ----------
    app_name:
        Application ("Route", "URL", ...).
    config_label:
        Configuration label (trace + application parameters).
    combo_label:
        DDT combination label in dominant-structure order ("AR+DLL").
    metrics:
        The four cost metrics.
    stats:
        Functional counters of the run (DDT-independent).  Values may
        be int or float; the persistent cache round-trips both exactly.
    wall_time_s:
        Host wall-clock seconds the simulation took (the paper quotes
        0.8-64 s per simulation on its testbed); a composed record holds
        its share of its lane run's time.
    parts:
        The run's metrics split per pool
        (:class:`~repro.memory.profiler.ProfileParts`) on a simulated
        record -- every (structure, DDT) part on a lane run; ``None`` on
        a composed one.  Excluded from equality and from
        :meth:`content_key`.
    """

    app_name: str
    config_label: str
    combo_label: str
    metrics: MetricVector
    stats: Mapping[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    parts: "ProfileParts | None" = field(default=None, compare=False, repr=False)

    @property
    def key(self) -> tuple[str, str]:
        """(config, combo) identity of the record."""
        return (self.config_label, self.combo_label)

    def content_key(self) -> tuple:
        """Everything the simulation *computed*, excluding host wall time.

        Two runs of the same point -- serial vs. parallel, fresh vs.
        cache-served -- must agree on this tuple exactly; only
        ``wall_time_s`` (host timing noise) may differ.
        """
        return (
            self.app_name,
            self.config_label,
            self.combo_label,
            self.metrics,
            tuple(sorted(self.stats.items())),
        )


class ExplorationLog:
    """Ordered collection of simulation records with exploration queries."""

    def __init__(self, records: Iterable[SimulationRecord] = ()) -> None:
        self._records: list[SimulationRecord] = list(records)

    # ------------------------------------------------------------------
    # container basics
    # ------------------------------------------------------------------
    def add(self, record: SimulationRecord) -> None:
        """Append one record."""
        self._records.append(record)

    def extend(self, records: Iterable[SimulationRecord]) -> None:
        """Append many records."""
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SimulationRecord]:
        return iter(self._records)

    @property
    def records(self) -> tuple[SimulationRecord, ...]:
        return tuple(self._records)

    # ------------------------------------------------------------------
    # exploration queries
    # ------------------------------------------------------------------
    def configs(self) -> tuple[str, ...]:
        """Distinct configuration labels, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.config_label, None)
        return tuple(seen)

    def combos(self) -> tuple[str, ...]:
        """Distinct combination labels, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.combo_label, None)
        return tuple(seen)

    def for_config(self, config_label: str) -> "ExplorationLog":
        """Sub-log of one configuration."""
        return ExplorationLog(
            r for r in self._records if r.config_label == config_label
        )

    def for_combo(self, combo_label: str) -> "ExplorationLog":
        """Sub-log of one DDT combination."""
        return ExplorationLog(r for r in self._records if r.combo_label == combo_label)

    def lookup(self, config_label: str, combo_label: str) -> SimulationRecord | None:
        """The record of one (config, combo) pair, if present."""
        for record in self._records:
            if record.config_label == config_label and record.combo_label == combo_label:
                return record
        return None

    def best_by(self, metric: str) -> SimulationRecord:
        """Record minimising one metric (over the whole log)."""
        if not self._records:
            raise ValueError("log is empty")
        if metric not in METRIC_NAMES:
            raise KeyError(f"unknown metric {metric!r}")
        return min(self._records, key=lambda r: r.metrics.get(metric))

    def filter(
        self, predicate: Callable[[SimulationRecord], bool]
    ) -> "ExplorationLog":
        """Generic predicate filter returning a new log."""
        return ExplorationLog(r for r in self._records if predicate(r))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    _CSV_FIELDS = (
        "app_name",
        "config_label",
        "combo_label",
        "energy_mj",
        "time_s",
        "accesses",
        "footprint_bytes",
        "wall_time_s",
    )

    def write_csv(self, path: str | os.PathLike[str]) -> None:
        """Write the log as CSV (stats are not persisted)."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(self._CSV_FIELDS)
            for r in self._records:
                writer.writerow(
                    [
                        r.app_name,
                        r.config_label,
                        r.combo_label,
                        f"{r.metrics.energy_mj:.9f}",
                        f"{r.metrics.time_s:.9f}",
                        r.metrics.accesses,
                        r.metrics.footprint_bytes,
                        f"{r.wall_time_s:.6f}",
                    ]
                )

    @classmethod
    def read_csv(cls, path: str | os.PathLike[str]) -> "ExplorationLog":
        """Read a log written by :meth:`write_csv`."""
        log = cls()
        with open(path, "r", newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            missing = set(cls._CSV_FIELDS) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"{path}: missing CSV columns {sorted(missing)}")
            for row in reader:
                log.add(
                    SimulationRecord(
                        app_name=row["app_name"],
                        config_label=row["config_label"],
                        combo_label=row["combo_label"],
                        metrics=MetricVector(
                            energy_mj=float(row["energy_mj"]),
                            time_s=float(row["time_s"]),
                            accesses=int(row["accesses"]),
                            footprint_bytes=int(row["footprint_bytes"]),
                        ),
                        wall_time_s=float(row["wall_time_s"]),
                    )
                )
        return log
