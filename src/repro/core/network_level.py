"""Step 2 -- network-level DDT exploration.

"We take the remaining 20% DDT combinations of the previous step and
simulate each one of them for all different network configurations"
(paper Section 3.2).  The step-1 reference results are reused when the
reference configuration is part of the sweep, so the simulation count
matches the paper's accounting (step-1 simulations + survivors x
remaining configurations).

Simulation points are submitted in one batch through an
:class:`~repro.core.engine.ExplorationEngine`, which may run them in
parallel and/or serve them from its persistent cache; the resulting log
is identical to the serial per-point loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.apps.base import NetworkApplication
from repro.core.application_level import Step1Result
from repro.core.engine import ExplorationEngine
from repro.core.results import ExplorationLog, SimulationRecord
from repro.core.simulate import SimulationEnvironment
from repro.ddt.registry import parse_combination_label
from repro.net.config import NetworkConfig

__all__ = [
    "Step2Plan",
    "Step2Result",
    "explore_network_level",
    "finish_network_level",
    "plan_network_level",
]

ProgressCallback = Callable[[int, int, str], None]


@dataclass
class Step2Result:
    """Outcome of the network-level exploration.

    Attributes
    ----------
    log:
        One record per (survivor combination, configuration) pair,
        including the reused reference-configuration records.
    configs:
        The explored configurations.
    simulations:
        Simulations the methodology performed in this step (reused
        reference records are not re-simulated and not counted; points
        served from a warm persistent cache *are* counted -- they are
        methodology simulations, merely pre-paid).
    reused:
        Reference-configuration records taken over from the step-1 log.
    reference_resimulated:
        Reference-configuration points that had to be re-simulated
        because the step-1 log had no record for them (e.g. a pruned or
        externally supplied log); these are counted in ``simulations``.
    """

    log: ExplorationLog
    configs: list[NetworkConfig]
    simulations: int
    reused: int = 0
    reference_resimulated: int = 0


@dataclass
class Step2Plan:
    """The laid-out step-2 grid, before any simulation runs.

    Produced by :func:`plan_network_level` and consumed by
    :func:`finish_network_level`; in between, ``points``/``details`` are
    the batch for an :class:`~repro.core.engine.ExplorationEngine` --
    either alone (:func:`explore_network_level`), or as the
    :class:`~repro.core.taskgraph.TaskNode` a step-1 continuation of
    :class:`~repro.core.campaign.RefinementChain` enqueues the moment
    that application's survivors are known.
    """

    app_cls: type[NetworkApplication]
    configs: list[NetworkConfig]
    #: Reused step-1 records, pre-placed; ``None`` marks engine slots.
    slots: list[SimulationRecord | None]
    #: Slot index of each engine point, aligned with ``points``.
    point_slots: list[int]
    points: list[tuple[NetworkConfig, Mapping[str, str]]]
    details: list[str]
    #: ``(slot, detail)`` of each reused reference record.
    reused_details: list[tuple[int, str]]
    reference_resimulated: int

    @property
    def total(self) -> int:
        """Grid size: survivors x configurations."""
        return len(self.slots)


def plan_network_level(
    app_cls: type[NetworkApplication],
    step1: Step1Result,
    configs: Sequence[NetworkConfig],
) -> Step2Plan:
    """Lay the (combo, config) grid out in deterministic order.

    Each slot is either a reused step-1 record or a point for the
    engine.
    """
    if not configs:
        raise ValueError("configs must not be empty")
    reference_label = step1.reference_config.label
    survivors = list(dict.fromkeys(step1.survivors))  # stable unique

    slots: list[SimulationRecord | None] = []
    reused_details: list[tuple[int, str]] = []
    point_slots: list[int] = []
    points: list[tuple[NetworkConfig, Mapping[str, str]]] = []
    details: list[str] = []
    reference_resimulated = 0
    for combo_label in survivors:
        assignment = parse_combination_label(combo_label, app_cls.dominant_structures)
        for config in configs:
            if config.label == reference_label:
                reused = step1.log.lookup(reference_label, combo_label)
                if reused is not None:
                    reused_details.append((len(slots), f"{combo_label} (reused)"))
                    slots.append(reused)
                    continue
                # The step-1 log is missing this reference record: the
                # point must be simulated, and the progress stream says
                # so distinctly (it is not a plain configuration run).
                reference_resimulated += 1
                detail = f"{combo_label} @ {config.label} (reference re-simulated)"
            else:
                detail = f"{combo_label} @ {config.label}"
            point_slots.append(len(slots))
            slots.append(None)
            points.append((config, assignment))
            details.append(detail)

    return Step2Plan(
        app_cls=app_cls,
        configs=list(configs),
        slots=slots,
        point_slots=point_slots,
        points=points,
        details=details,
        reused_details=reused_details,
        reference_resimulated=reference_resimulated,
    )


def finish_network_level(
    plan: Step2Plan, records: Sequence[SimulationRecord]
) -> Step2Result:
    """Slot the engine's records into the planned grid."""
    slots = list(plan.slots)
    for slot, record in zip(plan.point_slots, records):
        slots[slot] = record
    if any(record is None for record in slots):
        raise RuntimeError("step-2 grid has unresolved slots")

    return Step2Result(
        log=ExplorationLog(slots),
        configs=list(plan.configs),
        simulations=len(plan.points),
        reused=len(plan.reused_details),
        reference_resimulated=plan.reference_resimulated,
    )


def explore_network_level(
    app_cls: type[NetworkApplication],
    step1: Step1Result,
    configs: Sequence[NetworkConfig],
    env: SimulationEnvironment | None = None,
    progress: ProgressCallback | None = None,
    engine: ExplorationEngine | None = None,
) -> Step2Result:
    """Simulate the step-1 survivors across all network configurations."""
    engine = engine if engine is not None else ExplorationEngine(env=env)
    plan = plan_network_level(app_cls, step1, configs)

    done = 0
    if progress is not None:
        for _slot, detail in plan.reused_details:
            done += 1
            progress(done, plan.total, detail)
    base = done

    def engine_progress(batch_done: int, _batch_total: int, detail: str) -> None:
        if progress is not None:
            progress(base + batch_done, plan.total, detail)

    records = engine.run_batch(
        app_cls, plan.points, progress=engine_progress, details=plan.details
    )
    return finish_network_level(plan, records)
