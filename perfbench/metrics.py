"""Every metric the benchmark prints: unit, direction, and what it moves.

``GATED`` end-to-end metrics are the ones ``BENCHMARK.json`` declares
(with their regression bounds) and the last output line carries for
``--trace 0``; the others are printed in the table but not gated --
``teardown_s`` is microseconds on the serial workload, too small to
hold a bound, and ``failed_frac`` is 0 on every correct run (the
``failed``/``attempted`` fields of the result line carry it).
"""

from __future__ import annotations

from dataclasses import dataclass

from layers import LAYERS


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float | None  # None: printed, not gated
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    moves: str
    workloads: str
    better: str = "lower"


END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.25,
             "campaign construction until results are returned and every "
             "resource the run opened is closed"),
    EndToEnd("points_per_s", "points/s", "higher", 0.25,
             "points resolved (simulated or cached) per second of wall_s"),
    EndToEnd("simulations", "count", "lower", 0.05,
             "points actually simulated; deterministic per seed"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "trace-store warm-up, warm-cache build and copy, fleet launch"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.1,
             "peak resident memory of the coordinator process"),
    EndToEnd("teardown_s", "s", "lower", None,
             "the part of wall_s after run() returned"),
    EndToEnd("failed_frac", "ratio", "lower", None,
             "points failed or failing the output check / points attempted"),
)

GATED = tuple(m for m in END_TO_END if m.bound is not None)

_ALL = "all"
_SERIAL = "paper_serial"
_RESUME = "resume_grid"
_FLEET = "fleet_queue"

PER_LAYER = (
    PerLayer("net.trace_generations", "count", "setup_s", _ALL),
    PerLayer("net.trace_loads", "count", "wall_s", f"{_ALL}; {_FLEET} worker hydration"),
    PerLayer("net.trace_load_s", "s", "wall_s", _ALL),
    PerLayer("simulate.calls", "count", "wall_s, points_per_s", f"{_SERIAL}, {_RESUME}"),
    PerLayer("simulate.busy_s", "s", "wall_s, points_per_s", f"{_SERIAL}, {_RESUME}"),
    PerLayer("simulate.share", "ratio", "wall_s, points_per_s", f"{_SERIAL}, {_RESUME}", "higher"),
    PerLayer("simulate.point_ms.p50", "ms", "points_per_s", _ALL),
    PerLayer("simulate.point_ms.tail", "ms", "points_per_s", _ALL),
    PerLayer("simulate.point_ms.tail_pct", "percentile", "points_per_s", _ALL, "higher"),
    PerLayer("simulate.point_ms.samples", "count", "points_per_s", _ALL, "higher"),
    PerLayer("simulate.us_per_packet", "us", "wall_s", _SERIAL),
    PerLayer("apps.self_frac", "ratio", "wall_s", _SERIAL),
    PerLayer("ddt.self_frac", "ratio", "wall_s", _SERIAL),
    PerLayer("memory.self_frac", "ratio", "wall_s", _SERIAL),
    PerLayer("net.self_frac", "ratio", "wall_s", _SERIAL),
    PerLayer("core.self_frac", "ratio", "wall_s", _SERIAL),
    PerLayer("ddt.accesses", "count", "simulations, wall_s", _SERIAL),
    PerLayer("methodology.step1_points", "count", "simulations, wall_s", f"{_SERIAL}, {_RESUME}"),
    PerLayer("methodology.step2_points", "count", "simulations, wall_s", f"{_SERIAL}, {_RESUME}"),
    PerLayer("methodology.busy_s", "s", "wall_s", f"{_SERIAL}, {_RESUME}"),
    PerLayer("engine.cache_gets", "count", "wall_s", _RESUME),
    PerLayer("engine.cache_get_s", "s", "wall_s", _RESUME),
    PerLayer("engine.cache_hit_ratio", "ratio", "wall_s", _RESUME, "higher"),
    PerLayer("engine.cache_puts", "count", "wall_s, teardown_s", _SERIAL),
    PerLayer("engine.cache_put_s", "s", "wall_s, teardown_s", _SERIAL),
    PerLayer("engine.cache_flush_s", "s", "wall_s, teardown_s", _SERIAL),
    PerLayer("engine.fingerprint_s", "s", "wall_s, teardown_s", _SERIAL),
    PerLayer("campaign.manifest_s", "s", "wall_s", _RESUME),
    PerLayer("taskgraph.chunks", "count", "points_per_s", f"{_FLEET}, {_RESUME}"),
    PerLayer("taskgraph.points_per_chunk", "points", "points_per_s", f"{_FLEET}, {_RESUME}", "higher"),
    PerLayer("transport.submit_s", "s", "wall_s", f"{_FLEET}, {_RESUME}"),
    PerLayer("transport.wait_s", "s", "wall_s", f"{_FLEET}, {_RESUME}"),
    PerLayer("transport.results_per_take", "results", "wall_s", f"{_FLEET}, {_RESUME}", "higher"),
    PerLayer("transport.requeues", "count", "failed_frac, wall_s", _FLEET),
    PerLayer("transport.crashes", "count", "failed_frac, wall_s", _FLEET),
    PerLayer("broker.calls", "count", "points_per_s", _FLEET),
    PerLayer("broker.call_ms.p50", "ms", "points_per_s", _FLEET),
    PerLayer("broker.call_ms.tail", "ms", "points_per_s", _FLEET),
    PerLayer("broker.call_ms.tail_pct", "percentile", "points_per_s", _FLEET, "higher"),
    PerLayer("broker.call_ms.samples", "count", "points_per_s", _FLEET, "higher"),
    PerLayer("broker.start_s", "s", "setup_s", _FLEET),
    PerLayer("broker.close_s", "s", "teardown_s, wall_s", _FLEET),
    PerLayer("worker.startup_s", "s", "setup_s", _FLEET),
    PerLayer("worker.points", "count", "points_per_s", _FLEET, "higher"),
    PerLayer("worker.busy_frac", "ratio", "points_per_s", _FLEET, "higher"),
    PerLayer("worker.exit_s", "s", "teardown_s", _FLEET),
    PerLayer("journal.appends", "count", "wall_s", _FLEET),
    PerLayer("journal.append_s", "s", "wall_s", _FLEET),
    PerLayer("journal.compactions", "count", "wall_s", _FLEET),
    PerLayer("journal.compact_s", "s", "wall_s", _FLEET),
    *(PerLayer(f"{layer}.self_s", "s", "wall_s", _ALL) for layer in LAYERS),
    PerLayer("trace.overhead_frac", "ratio", "none (bounds trust in the split)", _ALL),
)
