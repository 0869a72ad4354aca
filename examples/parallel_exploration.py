#!/usr/bin/env python3
"""Parallel + cached exploration with the :class:`ExplorationEngine`.

The 3-step methodology already prunes ~80% of the simulations; the
engine layer makes the remaining ones cheap to run and free to re-run:

1. ``workers=N`` spreads the (combo, config) points of steps 1-2 over N
   worker processes.  Each worker builds one simulation environment (so
   traces are generated once per worker, not once per point) and the
   results are re-ordered deterministically -- the exploration log is
   identical to a serial run.
2. ``cache=...`` persists every finished simulation record as JSON
   under a cache directory, keyed by a fingerprint of the energy model,
   the CPU cost table and the record's own trace profile.  Re-running the same
   study is then pure cache replay: zero new simulations, identical
   Table-1 numbers.  Change any model coefficient and the fingerprint
   changes, so stale records are never served.

Run with::

    python examples/parallel_exploration.py
"""

import tempfile
import time

from repro import ExplorationEngine, case_study
from repro.core.reporting import table1_report


def run_once(engine: ExplorationEngine, label: str):
    study = case_study("Route")
    started = time.perf_counter()
    result = study.refinement(engine=engine, configs=study.configs[:4]).run()
    elapsed = time.perf_counter() - started
    stats = engine.stats
    print(
        f"{label}: {elapsed:5.1f}s -- {stats.simulations} simulated, "
        f"{stats.cache_hits} served from cache"
    )
    return result


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        # Cold run: 2 worker processes, populating the persistent cache.
        with ExplorationEngine(workers=2, cache=cache_dir) as engine:
            cold = run_once(engine, "cold (2 workers)")

        # Warm run: every point is served from the cache -- no workers
        # needed, no simulations run, same results.
        with ExplorationEngine(cache=cache_dir) as engine:
            warm = run_once(engine, "warm (cache only)")

        assert warm.summary_row() == cold.summary_row()
        assert list(warm.step2.log.records) == list(cold.step2.log.records)

    print("\nBoth runs produce the same Table-1 accounting:")
    print(table1_report([warm]))


if __name__ == "__main__":
    main()
