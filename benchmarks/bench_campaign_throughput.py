"""Campaign throughput: cold vs. warm trace store, serial vs. fleet.

The campaign scheduler's wins over four serial per-app runs are (a)
one shared worker pool for every app's shards, (b) the persistent
trace store, which caps trace generation at once per profile
fingerprint instead of once per worker per app, (c) the task graph,
which starts an app's step-2 grid the moment its own step-1 survivors
are known instead of waiting for a global phase barrier, and (d)
**chunked dispatch**, which amortises the per-point pickle/IPC
round-trip (the "dispatch tax") across a block of points.

This benchmark runs the same six-candidate four-app campaign in modes
crossing {serial, 4 workers} x {cold store, warm store}, plus a
**chunk-size sweep** (1 / 4 / 16 / auto points per chunk, warm store)
that records each mode's ``dispatch_overhead_s`` -- wall time beyond
the perfect-scaling ideal ``serial_warm / workers``, i.e. everything
dispatch, pickling and imbalance cost on top of the simulations
themselves.  Figures land in ``benchmarks/out/BENCH_campaign.json``
for the perf trajectory; the artifact records ``cpu_count`` so the
regression gate knows whether the measuring machine could express
real parallelism at all.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_throughput.py -q

On a box with fewer cores than workers the parallel figures are
honest but unflattering (four processes time-slicing one core); the
speedup floor in ``check_regression.py`` only applies where the
hardware can express it.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from repro.core.campaign import CampaignScheduler
from repro.core.casestudies import CASE_STUDIES

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
ARTIFACT = os.path.join(OUT_DIR, "BENCH_campaign.json")

#: Six of the ten DDTs: enough grid depth that pool start-up and
#: dispatch amortise over ~180 points instead of drowning them.
CANDIDATES = ("AR", "SLL", "DLL", "SLL(O)", "DLL(O)", "SLL(AR)")
CONFIGS = {study.name: list(study.configs[:2]) for study in CASE_STUDIES}
PARALLEL_WORKERS = 4

#: The chunk-size sweep: fixed block sizes plus the adaptive policy
#: (``None`` lets ``auto_chunk_points`` size blocks from each node's
#: cover runs and the pool width).
CHUNK_MODES = {"chunk1": 1, "chunk4": 4, "chunk16": 16, "chunk_auto": None}

#: Mode name -> measured figures; written out by the final artifact test
#: (pytest runs a module's tests in file order).
_RESULTS: dict[str, dict[str, float]] = {}


def _measure(
    workers: int,
    store_dir: str,
    chunk_points: "int | None" = None,
) -> dict[str, float]:
    started = time.perf_counter()
    with CampaignScheduler(
        candidates=CANDIDATES,
        configs=CONFIGS,
        workers=workers,
        trace_store=store_dir,
        chunk_points=chunk_points,
    ) as campaign:
        result = campaign.run()
    elapsed = time.perf_counter() - started
    points = result.stats.points
    return {
        "elapsed_s": elapsed,
        "simulations": result.stats.simulations,
        "composed": result.stats.composed,
        "points": points,
        "points_per_s": points / elapsed if elapsed > 0 else 0.0,
        "trace_generations": result.trace_counters["generations"],
        "trace_disk_loads": result.trace_counters["disk_loads"],
        "reduced_simulations": result.total_reduced_simulations(),
        "workers": workers,
        "chunk_points": 0 if chunk_points is None else chunk_points,
    }


def _run_mode(
    mode: str,
    benchmark,
    report,
    workers: int,
    warm: bool,
    chunk_points: "int | None" = None,
):
    with tempfile.TemporaryDirectory() as store_dir:
        if warm:
            _measure(0, store_dir)  # cold pass leaves the store populated
        figures = benchmark.pedantic(
            lambda: _measure(workers, store_dir, chunk_points),
            rounds=1,
            iterations=1,
        )
    if warm:
        assert figures["trace_generations"] == 0, (
            "a warm trace store must generate nothing"
        )
    _RESULTS[mode] = figures
    report(
        f"{mode}: {figures['simulations']} simulations in "
        f"{figures['elapsed_s']:.2f}s = {figures['points_per_s']:.1f} sims/s "
        f"({figures['trace_generations']} traces generated)"
    )
    return figures


def test_benchmark_serial_cold_store(benchmark, report):
    _run_mode("serial_cold", benchmark, report, workers=0, warm=False)


def test_benchmark_serial_warm_store(benchmark, report):
    _run_mode("serial_warm", benchmark, report, workers=0, warm=True)


def test_benchmark_parallel_cold_store(benchmark, report):
    _run_mode("parallel_cold", benchmark, report, workers=PARALLEL_WORKERS, warm=False)


def test_benchmark_parallel_warm_store(benchmark, report):
    _run_mode("parallel_warm", benchmark, report, workers=PARALLEL_WORKERS, warm=True)


def test_benchmark_chunk_sweep(benchmark, report):
    """Warm parallel runs at chunk sizes 1 / 4 / 16 / auto.

    ``chunk1`` is the pre-PR-7 per-point dispatch; the spread between
    it and the other modes *is* the dispatch tax.  Only the last mode
    goes through ``benchmark`` (the harness wants exactly one measured
    callable per test); all four land in the artifact.
    """
    with tempfile.TemporaryDirectory() as store_dir:
        _measure(0, store_dir)  # warm the trace store once for all modes
        modes = list(CHUNK_MODES.items())
        for mode, chunk_points in modes[:-1]:
            figures = _measure(
                PARALLEL_WORKERS, store_dir, chunk_points=chunk_points
            )
            assert figures["trace_generations"] == 0
            _RESULTS[mode] = figures
        last_mode, last_chunk = modes[-1]
        figures = benchmark.pedantic(
            lambda: _measure(PARALLEL_WORKERS, store_dir, chunk_points=last_chunk),
            rounds=1,
            iterations=1,
        )
        assert figures["trace_generations"] == 0
        _RESULTS[last_mode] = figures
    lines = [
        f"  {mode:<10} {_RESULTS[mode]['elapsed_s']:6.2f}s "
        f"{_RESULTS[mode]['points_per_s']:8.1f} points/s"
        for mode in CHUNK_MODES
    ]
    report("chunk-size sweep (warm store, 4 workers):\n" + "\n".join(lines))


def test_write_benchmark_artifact(report):
    """Persist every mode's figures for the perf trajectory."""
    assert set(_RESULTS) == {
        "serial_cold",
        "serial_warm",
        "parallel_cold",
        "parallel_warm",
        *CHUNK_MODES,
    }
    serial_s = _RESULTS["serial_cold"]["elapsed_s"]
    serial_warm_s = _RESULTS["serial_warm"]["elapsed_s"]
    # Dispatch overhead: wall time beyond the perfect-scaling ideal.
    ideal_s = serial_warm_s / PARALLEL_WORKERS
    for mode in (*CHUNK_MODES, "parallel_warm"):
        _RESULTS[mode]["dispatch_overhead_s"] = (
            _RESULTS[mode]["elapsed_s"] - ideal_s
        )
    artifact = {
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "apps": [study.name for study in CASE_STUDIES],
            "candidates": list(CANDIDATES),
            "configs_per_app": {
                name: [c.label for c in configs] for name, configs in CONFIGS.items()
            },
        },
        "modes": _RESULTS,
        "speedup_vs_serial_cold": {
            mode: serial_s / figures["elapsed_s"]
            for mode, figures in _RESULTS.items()
            if figures["elapsed_s"] > 0
        },
        "parallel_speedup_warm": (
            serial_warm_s / _RESULTS["parallel_warm"]["elapsed_s"]
            if _RESULTS["parallel_warm"]["elapsed_s"] > 0
            else 0.0
        ),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
    lines = [
        f"  {mode:<20} {figures['points_per_s']:8.1f} points/s "
        f"({figures['elapsed_s']:.2f}s)"
        for mode, figures in _RESULTS.items()
    ]
    report(
        "Campaign throughput written to BENCH_campaign.json\n" + "\n".join(lines)
    )
