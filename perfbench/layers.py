"""Which public functions each layer is timed at, and the per-layer metrics.

Layers are named after the program's modules:

========  ==========================================================
net       ``repro.net`` trace store (generation, disk loads)
simulate  ``run_simulation``, the point kernel (apps, DDTs, memory)
methodology  step 1/2/3 plan and finish functions
engine    the coordinator record cache and model fingerprints
campaign  ``CampaignScheduler`` and its manifest
taskgraph ``TaskGraph.run`` and chunking
transport ``LocalPoolTransport`` / ``QueueTransport`` (coordinator side)
broker    ``EmbeddedBroker`` and ``BrokerClient``
worker    ``serve_queue_worker`` (its own processes)
journal   ``Journal`` appends and compactions (broker threads)
========  ==========================================================

:func:`install_coordinator` wraps the functions the campaign process
calls; :func:`install_worker` wraps the ones a queue worker calls.
:func:`layer_metrics` turns the merged spans of one traced repetition
into the per-layer metrics of ``BENCHMARK.json``.

Two of the wrapped methods are private (``_manifest_payload``,
``_write_manifest``): they are the manifest read and write the campaign
does around ``run()``, and no public function covers them.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Mapping, Sequence

from tracing import Recorder, percentile, self_times, tail

LAYERS = (
    "net",
    "simulate",
    "methodology",
    "engine",
    "campaign",
    "taskgraph",
    "transport",
    "broker",
    "worker",
    "journal",
)


def _trace_get_before(args: tuple, kwargs: dict) -> tuple[int, int]:
    store = args[0]
    return store.generations, store.disk_loads


def _trace_get_after(state, args, kwargs, result) -> dict[str, int]:
    store = args[0]
    return {
        "generated": store.generations - state[0],
        "loaded": store.disk_loads - state[1],
    }


def _record_attrs(record: Any) -> dict[str, Any]:
    return {
        "wall": record.wall_time_s,
        "packets": float(record.stats.get("packets", 0)),
        "accesses": record.metrics.accesses,
    }


def _simulation_after(state, args, kwargs, result) -> dict[str, Any]:
    return _record_attrs(result)


def _results_after(state, args, kwargs, result) -> dict[str, Any]:
    records = [record for _token, record in result]
    return {
        "results": len(records),
        "records": [_record_attrs(record) for record in records],
    }


def _chunk_after(state, args, kwargs, result) -> dict[str, Any]:
    return {"points": len(args[2].entries)}


def _cache_get_after(state, args, kwargs, result) -> dict[str, Any]:
    return {"hit": result is not None}


def _call_after(state, args, kwargs, result) -> dict[str, Any]:
    return {"op": args[1] if len(args) > 1 else kwargs.get("op")}


def _step1_after(state, args, kwargs, result) -> dict[str, Any]:
    return {"points": len(result.log)}


def _plan_after(state, args, kwargs, result) -> dict[str, Any]:
    return {"points": len(result.points)}


def _wrap_trace_store(rec: Recorder) -> None:
    from repro.net import tracestore

    rec.wrap(
        tracestore.TraceStore,
        "get",
        "TraceStore.get",
        "net",
        before=_trace_get_before,
        after=_trace_get_after,
    )
    rec.wrap(tracestore.TraceStore, "ensure", "TraceStore.ensure", "net")


def _wrap_broker_client(rec: Recorder) -> None:
    from repro.core import broker

    rec.wrap(
        broker.BrokerClient, "call", "BrokerClient.call", "broker", after=_call_after
    )


def install_coordinator(rec: Recorder) -> None:
    """Wrap every layer boundary the campaign process crosses."""
    from repro.core import broker, campaign, engine, journal, taskgraph, transport

    _wrap_trace_store(rec)
    _wrap_broker_client(rec)
    rec.wrap(
        taskgraph, "run_simulation", "run_simulation", "simulate",
        after=_simulation_after,
    )
    for name, after in (
        ("finish_application_level", _step1_after),
        ("plan_network_level", _plan_after),
        ("finish_network_level", None),
        ("explore_pareto_level", None),
    ):
        rec.wrap(campaign, name, name, "methodology", after=after)
    rec.wrap(
        engine.SimulationCache, "get", "SimulationCache.get", "engine",
        after=_cache_get_after,
    )
    rec.wrap(engine.SimulationCache, "put", "SimulationCache.put", "engine")
    rec.wrap(engine.SimulationCache, "flush", "SimulationCache.flush", "engine")
    rec.wrap(engine, "model_fingerprint", "model_fingerprint", "engine")
    rec.wrap(engine.ExplorationEngine, "close", "ExplorationEngine.close", "engine")
    rec.wrap(campaign.CampaignScheduler, "run", "CampaignScheduler.run", "campaign")
    rec.wrap(
        campaign.CampaignScheduler, "close", "CampaignScheduler.close", "campaign"
    )
    for attr in ("manifest_entries", "_manifest_payload", "_write_manifest"):
        rec.wrap(campaign.CampaignScheduler, attr, "campaign.manifest", "campaign")
    rec.wrap(taskgraph.TaskGraph, "run", "TaskGraph.run", "taskgraph")
    for cls in (transport.LocalPoolTransport, broker.QueueTransport):
        prefix = cls.__name__
        rec.wrap(cls, "start", f"{prefix}.start", "transport")
        rec.wrap(
            cls, "submit_chunk", f"{prefix}.submit_chunk", "transport",
            after=_chunk_after,
        )
        rec.wrap(
            cls, "next_results", f"{prefix}.next_results", "transport",
            after=_results_after,
        )
        rec.wrap(cls, "close", f"{prefix}.close", "transport")
    rec.wrap(broker.EmbeddedBroker, "start", "EmbeddedBroker.start", "broker")
    rec.wrap(broker.EmbeddedBroker, "close", "EmbeddedBroker.close", "broker")
    rec.wrap(journal.Journal, "append", "Journal.append", "journal")
    rec.wrap(journal.Journal, "compact", "Journal.compact", "journal")


def install_worker(rec: Recorder) -> None:
    """Wrap the layer boundaries a queue worker process crosses."""
    from repro.core import broker

    _wrap_trace_store(rec)
    _wrap_broker_client(rec)
    rec.wrap(
        broker, "run_simulation", "run_simulation", "simulate",
        after=_simulation_after,
    )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _named(spans: Sequence[Mapping[str, Any]], *names: str) -> list[Mapping[str, Any]]:
    return [s for s in spans if s["name"] in names]


def _dur(span: Mapping[str, Any]) -> float:
    return span["end"] - span["start"]


def _total(spans: Sequence[Mapping[str, Any]]) -> float:
    return sum(_dur(s) for s in spans)


def layer_metrics(
    spans: Sequence[Mapping[str, Any]],
    coordinator_pid: int,
    rep: Mapping[str, Any],
    untraced_wall_s: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``spans`` are the merged spans of the coordinator and any worker
    processes; ``rep`` is the traced repetition's own measurement
    (``wall_s`` plus the fleet figures the benchmark timed itself).
    """
    wall = rep["wall_s"]
    mine = [s for s in spans if s["pid"] == coordinator_pid]
    out: dict[str, float] = {}

    gets = _named(spans, "TraceStore.get")
    out["net.trace_generations"] = sum(s["args"].get("generated", 0) for s in gets)
    out["net.trace_loads"] = sum(s["args"].get("loaded", 0) for s in gets)
    out["net.trace_load_s"] = _total([s for s in gets if s["args"].get("loaded")])

    # Simulated records seen by the coordinator: run in-process (serial
    # path) or returned through a transport (pool or queue workers).
    local = _named(mine, "run_simulation")
    remote = [
        record
        for s in _named(mine, "LocalPoolTransport.next_results", "QueueTransport.next_results")
        for record in s["args"].get("records", ())
    ]
    records = [s["args"] for s in local] + list(remote)
    busy = _total(local) + sum(r["wall"] for r in remote)
    packets = sum(r["packets"] for r in records)
    point_ms = [r["wall"] * 1e3 for r in records]
    out["simulate.calls"] = len(records)
    out["simulate.busy_s"] = busy
    out["simulate.share"] = busy / wall if wall > 0 else 0.0
    out["simulate.point_ms.p50"] = percentile(point_ms, 50.0)
    value, pct, n = tail(point_ms)
    out["simulate.point_ms.tail"] = value
    out["simulate.point_ms.tail_pct"] = pct
    out["simulate.point_ms.samples"] = n
    out["simulate.us_per_packet"] = busy / packets * 1e6 if packets else 0.0
    out["ddt.accesses"] = sum(r["accesses"] for r in records)

    out["methodology.step1_points"] = sum(
        s["args"].get("points", 0) for s in _named(mine, "finish_application_level")
    )
    out["methodology.step2_points"] = sum(
        s["args"].get("points", 0) for s in _named(mine, "plan_network_level")
    )
    out["methodology.busy_s"] = _total(
        _named(
            mine,
            "finish_application_level",
            "plan_network_level",
            "finish_network_level",
            "explore_pareto_level",
        )
    )

    cache_gets = _named(mine, "SimulationCache.get")
    hits = sum(1 for s in cache_gets if s["args"].get("hit"))
    out["engine.cache_gets"] = len(cache_gets)
    out["engine.cache_get_s"] = _total(cache_gets)
    out["engine.cache_hit_ratio"] = hits / len(cache_gets) if cache_gets else 0.0
    puts = _named(mine, "SimulationCache.put")
    out["engine.cache_puts"] = len(puts)
    out["engine.cache_put_s"] = _total(puts)
    out["engine.cache_flush_s"] = _total(_named(mine, "SimulationCache.flush"))
    out["engine.fingerprint_s"] = _total(_named(mine, "model_fingerprint"))

    out["campaign.manifest_s"] = _total(_named(mine, "campaign.manifest"))

    chunks = _named(mine, "LocalPoolTransport.submit_chunk", "QueueTransport.submit_chunk")
    chunk_points = sum(s["args"].get("points", 0) for s in chunks)
    out["taskgraph.chunks"] = len(chunks)
    out["taskgraph.points_per_chunk"] = chunk_points / len(chunks) if chunks else 0.0
    takes = _named(mine, "LocalPoolTransport.next_results", "QueueTransport.next_results")
    out["transport.submit_s"] = _total(chunks)
    out["transport.wait_s"] = _total(takes)
    out["transport.results_per_take"] = (
        sum(s["args"].get("results", 0) for s in takes) / len(takes) if takes else 0.0
    )
    out["transport.requeues"] = rep.get("requeues", 0)
    out["transport.crashes"] = rep.get("crashes", 0)

    calls = _named(spans, "BrokerClient.call")
    call_ms = [_dur(s) * 1e3 for s in calls]
    out["broker.calls"] = len(calls)
    out["broker.call_ms.p50"] = percentile(call_ms, 50.0)
    value, pct, n = tail(call_ms)
    out["broker.call_ms.tail"] = value
    out["broker.call_ms.tail_pct"] = pct
    out["broker.call_ms.samples"] = n
    out["broker.start_s"] = _total(_named(mine, "EmbeddedBroker.start"))
    out["broker.close_s"] = _total(_named(mine, "EmbeddedBroker.close"))

    fleet = rep.get("fleet") or {}
    startups = fleet.get("startup_s") or []
    out["worker.startup_s"] = median(startups) if startups else 0.0
    out["worker.points"] = fleet.get("points", 0)
    busy_s = fleet.get("busy_s", 0.0)
    width = max(1, len(startups))
    out["worker.busy_frac"] = busy_s / (width * wall) if wall > 0 and startups else 0.0
    out["worker.exit_s"] = fleet.get("exit_s", 0.0)

    appends = _named(mine, "Journal.append")
    compacts = _named(mine, "Journal.compact")
    out["journal.appends"] = len(appends)
    out["journal.append_s"] = _total(appends)
    out["journal.compactions"] = len(compacts)
    out["journal.compact_s"] = _total(compacts)

    selfs = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    out["trace.overhead_frac"] = (
        wall / untraced_wall_s - 1.0 if untraced_wall_s > 0 else 0.0
    )
    return out
