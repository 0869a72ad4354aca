"""Exploration-engine throughput: serial vs. parallel vs. warm cache.

The 3-step methodology's cost is simulations; the engine attacks it
mechanically (process pool, persistent record cache) on top of the
paper's algorithmic pruning.  This benchmark measures simulations/sec of
one fixed small sweep (URL, 4 candidate DDTs, 2 network configurations)
in the three engine modes and writes the results to
``benchmarks/out/BENCH_exploration.json`` so future PRs can track the
perf trajectory.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_exploration_throughput.py -q

Note: on a sweep this small, pool start-up and per-worker trace
generation can outweigh the win -- the artifact records the honest
numbers either way; the parallel path is built for the full case-study
and sensitivity-grid sweeps.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import pytest

from repro.apps import UrlApp
from repro.core.engine import ExplorationEngine, SimulationCache
from repro.core.methodology import DDTRefinement
from repro.net.config import NetworkConfig

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
ARTIFACT = os.path.join(OUT_DIR, "BENCH_exploration.json")

CANDIDATES = ("AR", "SLL", "DLL(O)", "SLL(AR)")
CONFIGS = (NetworkConfig("Whittemore"), NetworkConfig("Sudikoff"))
PARALLEL_WORKERS = 2

#: Mode name -> measured figures, filled by the mode tests and written
#: out by the final artifact test (pytest runs a module's tests in file
#: order).
_RESULTS: dict[str, dict[str, float]] = {}


def _run_refinement(engine: ExplorationEngine):
    return DDTRefinement(
        UrlApp, configs=list(CONFIGS), candidates=CANDIDATES, engine=engine
    ).run()


def _measure(engine: ExplorationEngine) -> dict[str, float]:
    started = time.perf_counter()
    result = _run_refinement(engine)
    elapsed = time.perf_counter() - started
    points = engine.stats.points
    return {
        "elapsed_s": elapsed,
        "simulations": engine.stats.simulations,
        "composed": engine.stats.composed,
        "cache_hits": engine.stats.cache_hits,
        "points": points,
        "points_per_s": points / elapsed if elapsed > 0 else 0.0,
        "reduced_simulations": result.reduced_simulations,
    }


def test_benchmark_serial_throughput(benchmark, report):
    engine = ExplorationEngine()
    figures = benchmark.pedantic(lambda: _measure(engine), rounds=1, iterations=1)
    assert figures["points"] == figures["reduced_simulations"]
    _RESULTS["serial"] = figures
    report(
        f"serial: {figures['simulations']} simulations in "
        f"{figures['elapsed_s']:.2f}s = {figures['points_per_s']:.1f} sims/s"
    )


def test_benchmark_parallel_throughput(benchmark, report):
    def run():
        with ExplorationEngine(workers=PARALLEL_WORKERS) as engine:
            return _measure(engine)

    figures = benchmark.pedantic(run, rounds=1, iterations=1)
    figures["workers"] = PARALLEL_WORKERS
    _RESULTS["parallel"] = figures
    report(
        f"parallel ({PARALLEL_WORKERS} workers): {figures['simulations']} "
        f"simulations in {figures['elapsed_s']:.2f}s = "
        f"{figures['points_per_s']:.1f} sims/s"
    )


def test_benchmark_warm_cache_throughput(benchmark, report):
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = SimulationCache(cache_dir)
        with ExplorationEngine(cache=cache) as engine:
            _run_refinement(engine)  # cold pass populates the cache

        warm = ExplorationEngine(cache=cache)
        figures = benchmark.pedantic(
            lambda: _measure(warm), rounds=1, iterations=1
        )
        warm.close()
    assert figures["simulations"] == 0, "warm cache must re-simulate nothing"
    assert figures["cache_hits"] == figures["points"]
    _RESULTS["warm_cache"] = figures
    report(
        f"warm cache: {figures['points']} points served from cache in "
        f"{figures['elapsed_s']:.2f}s = {figures['points_per_s']:.1f} points/s"
    )


def test_write_benchmark_artifact(report):
    """Persist the three modes' figures for the perf trajectory."""
    assert set(_RESULTS) == {"serial", "parallel", "warm_cache"}
    serial_s = _RESULTS["serial"]["elapsed_s"]
    artifact = {
        "workload": {
            "app": UrlApp.name,
            "candidates": list(CANDIDATES),
            "configs": [config.label for config in CONFIGS],
        },
        "modes": _RESULTS,
        "speedup_vs_serial": {
            mode: serial_s / figures["elapsed_s"]
            for mode, figures in _RESULTS.items()
            if figures["elapsed_s"] > 0
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
    lines = [
        f"  {mode:<10} {figures['points_per_s']:8.1f} points/s "
        f"({figures['elapsed_s']:.2f}s)"
        for mode, figures in _RESULTS.items()
    ]
    report(
        "Exploration throughput written to BENCH_exploration.json\n"
        + "\n".join(lines)
    )
