"""Output check of one repetition.

Two oracles, neither of which shares the measured run's schedule:

* **Records.**  A seeded sample of the run's points is simulated again
  with plain ``run_simulation`` on a fresh ``SimulationEnvironment``
  (traces regenerated from their profiles, no store, no cache) and
  must match the run's record on ``content_key()``.
* **Table 1.**  Each application's (exhaustive, reduced, Pareto-optimal)
  row must equal the row of a serial per-application
  ``DDTRefinement`` over the same configurations.  The reference engine
  is seeded with the run's records, so it re-derives steps 1-3 without
  paying for the simulations again; any point the run did not resolve
  is simulated fresh by the reference.

Every unresolved point and every sampled mismatch counts as one failed
point; an application whose Table-1 row differs counts all of its
points as failed.
"""

from __future__ import annotations

import random
from typing import Any, Mapping, Sequence

#: Points re-simulated per repetition.
SAMPLE_SIZE = 8


def run_records(result: Any) -> dict[tuple[str, str, str], Any]:
    """Every record a campaign result holds, keyed by (app, config, combo)."""
    records: dict[tuple[str, str, str], Any] = {}
    for refinement in result.refinements.values():
        for log in (refinement.step1.log, refinement.step2.log):
            for record in log:
                records[(record.app_name, record.config_label, record.combo_label)] = record
    return records


def expected_points(result: Any) -> int:
    """Points the campaign scheduled: step 1 plus the step-2 grid."""
    return sum(
        r.step1.simulations + r.step2.simulations for r in result.refinements.values()
    )


def check_campaign(
    result: Any,
    studies: Sequence[Any],
    configs: Mapping[str, Sequence[Any]],
    candidates: Sequence[str] | None,
    seed: int,
    cache_dir: str,
) -> dict[str, Any]:
    """Check one campaign result; returns counts and any mismatch notes."""
    from repro.core.engine import ExplorationEngine, SimulationCache
    from repro.core.methodology import DDTRefinement
    from repro.core.simulate import SimulationEnvironment, run_simulation
    from repro.ddt.registry import parse_combination_label

    attempted = expected_points(result)
    failed = 0
    notes: list[str] = []
    if result.stats.points != attempted:
        failed += abs(attempted - result.stats.points)
        notes.append(f"resolved {result.stats.points} of {attempted} points")

    records = run_records(result)
    by_app = {study.name: study for study in studies}
    by_class = {study.app_cls.name: study for study in studies}
    rng = random.Random(f"check:{seed}")
    keys = sorted(records)
    env = SimulationEnvironment()
    for key in rng.sample(keys, min(SAMPLE_SIZE, len(keys))):
        record = records[key]
        study = by_class[record.app_name]
        config = next(c for c in configs[study.name] if c.label == record.config_label)
        assignment = parse_combination_label(
            record.combo_label, study.app_cls.dominant_structures
        )
        fresh = run_simulation(study.app_cls, config, assignment, env)
        if fresh.content_key() != record.content_key():
            failed += 1
            notes.append(f"record mismatch: {key}")

    cache = SimulationCache(cache_dir)
    with ExplorationEngine(cache=cache) as engine:
        for record in records.values():
            cache.put(record.app_name, engine.fingerprint, record)
        for name, refinement in result.refinements.items():
            study = by_app[name]
            reference = DDTRefinement(
                study.app_cls,
                configs=list(configs[name]),
                candidates=candidates,
                engine=engine,
            ).run()
            actual, expected = refinement.summary_row(), reference.summary_row()
            if actual != expected:
                failed += refinement.step1.simulations + refinement.step2.simulations
                notes.append(f"Table-1 row {actual} != serial {expected}")
    return {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "notes": notes,
        "table1": [list(row) for row in result.summary_rows()],
    }
