"""The three workloads: inputs drawn from the seed, and one repetition each.

Every workload is a closed-loop batch: one campaign at a time from one
benchmark process, so each reports work completed per second at its
stated input size.

``paper_serial``
    The four-application paper campaign, serial, full 10-DDT library,
    coordinator cache on in a fresh directory, trace store warmed in
    set-up.  The seed shuffles the order of the applications and of
    each application's non-reference configurations; step 1 stays on
    the paper's reference configuration, so every seed costs the same
    work.
``resume_grid``
    ``resume=True`` on a two-process local pool, each repetition
    starting from a fresh copy of a warm cache built once in set-up
    from the seed's ``paper_serial`` inputs.  The seed draws one extra
    grid value for Route ``radix_size``, IPchains ``rule_count`` and
    DRR ``quantum``.
``fleet_queue``
    A journaled ``EmbeddedBroker`` and two ``serve_queue_worker``
    processes (capacity 1) started in set-up; the campaign runs through
    ``QueueTransport(broker)`` with auto chunking and no record cache
    at any tier, over all four applications (in a seeded order), eight
    DDTs and two small wireless traces: step 1 on Whittemore, step 2
    adding one of Berry-I, McLaughlin or Sudikoff drawn by the seed.

``scale="tiny"`` shrinks every workload to a few dozen points for the
benchmark's own smoke tests.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable

import env

WORKLOADS = ("paper_serial", "resume_grid", "fleet_queue")

#: Eight of the ten DDTs for the fleet workload: ~300 short points, so
#: dispatch, broker and journal costs stay a visible share of the run.
FLEET_CANDIDATES = ("AR", "AR(P)", "SLL", "DLL", "SLL(O)", "DLL(O)", "SLL(AR)", "DLL(AR)")
#: Small wireless traces of the fleet workload: step 1 always runs on
#: the first, and the seed draws the second from the rest.
SMALL_WIRELESS = ("Whittemore", "Berry-I", "McLaughlin", "Sudikoff")
#: Extra grid values ``resume_grid`` draws one of per parameter; each
#: lies between the paper's own values, so every draw costs about the
#: same.
GRID_CHOICES = {
    "Route": ("radix_size", (176, 192, 208)),
    "IPchains": ("rule_count", (44, 48, 52)),
    "DRR": ("quantum", (1000, 1100, 1200)),
}
TINY_APPS = ("URL", "DRR")
TINY_CANDIDATES = ("AR", "SLL", "DLL")
#: Local pool width of ``resume_grid`` and queue workers of ``fleet_queue``.
WORKERS = 2
#: Warm-ups of the ``paper_serial`` trace store per repetition.
STORE_WARMUPS = 3


@dataclass
class Inputs:
    """What the program receives: applications, DDTs, configs, grids."""

    studies: list[Any]
    candidates: tuple[str, ...] | None
    configs: dict[str, list[Any]]
    grids: dict[str, dict[str, list[Any]]] = field(default_factory=dict)

    def trace_names(self) -> list[str]:
        names = [c.trace_name for configs in self.configs.values() for c in configs]
        return list(dict.fromkeys(names))

    def describe(self) -> dict[str, Any]:
        return {
            "apps": [s.name for s in self.studies],
            "candidates": list(self.candidates) if self.candidates else "all",
            "configs": {k: [c.label for c in v] for k, v in self.configs.items()},
            "grids": self.grids,
        }


def _studies(scale: str) -> list[Any]:
    from repro.core.casestudies import CASE_STUDIES

    if scale == "tiny":
        return [s for s in CASE_STUDIES if s.name in TINY_APPS]
    return list(CASE_STUDIES)


def paper_inputs(seed: int, scale: str) -> Inputs:
    """The paper campaign, apps in a seeded order, each app's
    non-reference configs shuffled."""
    rng = random.Random(f"paper:{seed}")
    studies = _studies(scale)
    rng.shuffle(studies)
    configs = {}
    for study in studies:
        reference, *rest = study.configs
        rng.shuffle(rest)
        configs[study.name] = [reference, *rest][: 3 if scale == "tiny" else None]
    candidates = TINY_CANDIDATES if scale == "tiny" else None
    return Inputs(studies, candidates, configs)


def resume_inputs(seed: int, scale: str) -> Inputs:
    """``paper_inputs`` plus one seed-drawn extra value per grid."""
    inputs = paper_inputs(seed, scale)
    rng = random.Random(f"grid:{seed}")
    names = {s.name for s in inputs.studies}
    for app, (param, choices) in GRID_CHOICES.items():
        if app in names:
            inputs.grids[app] = {param: [rng.choice(choices)]}
    return inputs


def fleet_inputs(seed: int, scale: str) -> Inputs:
    """Every app, in a seeded order, over two small wireless traces and
    eight DDTs: step 1 on the first trace, the second drawn by the seed."""
    from repro.net.config import NetworkConfig

    rng = random.Random(f"fleet:{seed}")
    reference, *others = SMALL_WIRELESS
    traces = [reference, rng.choice(others)]
    studies = _studies(scale)
    rng.shuffle(studies)
    configs = {s.name: [NetworkConfig(t) for t in traces] for s in studies}
    candidates = TINY_CANDIDATES if scale == "tiny" else FLEET_CANDIDATES
    return Inputs(studies, candidates, configs)


def inputs_for(workload: str, seed: int, scale: str) -> Inputs:
    return {
        "paper_serial": paper_inputs,
        "resume_grid": resume_inputs,
        "fleet_queue": fleet_inputs,
    }[workload](seed, scale)


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
def now() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    """High-water resident memory of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phases:
    """Benchmark-level spans around set-up and the measured run (no-ops
    when the repetition is not traced)."""

    def __init__(self, recorder: Any) -> None:
        self.recorder = recorder

    def __call__(self, name: str):
        if self.recorder is None:
            return nullcontext({})
        return self.recorder.span(name, "bench")


def _campaign(inputs: Inputs, **kwargs: Any) -> Any:
    from repro.core.campaign import CampaignScheduler

    return CampaignScheduler(
        studies=inputs.studies,
        candidates=inputs.candidates,
        configs=inputs.configs,
        grids=inputs.grids or None,
        **kwargs,
    )


def _measure(make: Callable[[], Any], after_run: Callable[[], None] | None = None):
    """Construct, run and close one campaign; ``(result, campaign,
    timings)``.  ``after_run`` closes anything else the run opened and
    counts as teardown."""
    started = now()
    campaign = make()
    try:
        result = campaign.run()
        returned = now()
    finally:
        try:
            campaign.close()
        finally:
            if after_run is not None:
                after_run()
    ended = now()
    return result, campaign, {
        "wall_s": ended - started,
        "teardown_s": ended - returned,
    }


def build_warm_cache(spec: dict[str, Any]) -> dict[str, Any]:
    """``resume_grid`` set-up: the seed's paper campaign into a cache."""
    inputs = paper_inputs(spec["seed"], spec["scale"])
    started = now()
    campaign = _campaign(
        inputs,
        workers=WORKERS,
        cache=spec["warm_dir"],
        trace_store=spec["store_dir"],
    )
    with campaign:
        campaign.run()
    return {"build_s": now() - started}


def rep_paper_serial(spec: dict[str, Any], phase: Phases) -> dict[str, Any]:
    from repro.net.tracestore import TraceStore

    inputs = paper_inputs(spec["seed"], spec["scale"])
    work = spec["work"]
    with phase("bench.setup"):
        warmups = []
        for index in range(STORE_WARMUPS):
            store_dir = os.path.join(work, f"traces-{index}")
            started = now()
            TraceStore(store_dir).ensure(inputs.trace_names())
            warmups.append(now() - started)
    with phase("bench.run"):
        result, campaign, timing = _measure(
            lambda: _campaign(
                inputs,
                workers=0,
                cache=os.path.join(work, "cache"),
                trace_store=store_dir,
            )
        )
    return {
        **timing,
        "setup_s": median(warmups),
        "peak_rss_mb": peak_rss_mb(),
        "_result": result,
        "_campaign": campaign,
        "_inputs": inputs,
    }


def rep_resume_grid(spec: dict[str, Any], phase: Phases) -> dict[str, Any]:
    inputs = resume_inputs(spec["seed"], spec["scale"])
    cache_dir = os.path.join(spec["work"], "cache")
    with phase("bench.setup"):
        started = now()
        shutil.copytree(spec["warm_dir"], cache_dir)
        copy_s = now() - started
    with phase("bench.run"):
        result, campaign, timing = _measure(
            lambda: _campaign(
                inputs,
                workers=WORKERS,
                cache=cache_dir,
                trace_store=spec["store_dir"],
                resume=True,
            )
        )
    return {
        **timing,
        "setup_s": copy_s,
        "peak_rss_mb": peak_rss_mb(),
        "_result": result,
        "_campaign": campaign,
        "_inputs": inputs,
    }


def _stop(process: subprocess.Popen) -> None:
    """Terminate, then kill, a worker that is still running; always reap."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


def rep_fleet_queue(spec: dict[str, Any], phase: Phases) -> dict[str, Any]:
    from repro.core.broker import EmbeddedBroker, QueueTransport
    from repro.net.tracestore import TraceStore

    inputs = fleet_inputs(spec["seed"], spec["scale"])
    work = spec["work"]
    store_dir = os.path.join(work, "traces")
    spans_dir = spec.get("spans_dir")
    processes: list[subprocess.Popen] = []
    broker = None
    log = open(os.path.join(work, "workers.log"), "ab")
    try:
        with phase("bench.setup"):
            started = now()
            TraceStore(store_dir).ensure(inputs.trace_names())
            broker = EmbeddedBroker(journal=os.path.join(work, "journal"))
            broker.start()
            spawned: dict[str, float] = {}
            for index in range(WORKERS):
                worker_id = f"w{index + 1}"
                command = [
                    sys.executable,
                    os.path.join(env.HERE, "worker.py"),
                    "--address", broker.address,
                    "--id", worker_id,
                ]
                if spans_dir:
                    command += [
                        "--spans", os.path.join(spans_dir, f"{worker_id}.jsonl"),
                        "--run-id", spec["run_id"],
                    ]
                spawned[worker_id] = now()
                processes.append(
                    subprocess.Popen(
                        command, cwd=env.ROOT, stdout=log, stderr=subprocess.STDOUT
                    )
                )
            startup = _wait_registered(broker.address, spawned, processes)
            setup_s = now() - started

        transport = QueueTransport(broker, worker_timeout=30.0)
        exit_s: list[float] = []

        def close_fleet() -> None:
            closed = now()
            for process in processes:
                process.wait(timeout=30)
                exit_s.append(now() - closed)
            broker.close()

        with phase("bench.run"):
            result, campaign, timing = _measure(
                lambda: _campaign(inputs, transport=transport, trace_store=store_dir),
                after_run=close_fleet,
            )
    finally:
        for process in processes:
            _stop(process)
        if broker is not None:
            broker.close()
        log.close()
    stats = result.worker_stats
    return {
        **timing,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "requeues": transport.requeues,
        "crashes": sum(transport.crashes.values()),
        "fleet": {
            "startup_s": sorted(startup.values()),
            "exit_s": max(exit_s) if exit_s else 0.0,
            "points": sum(int(s.get("points", 0)) for s in stats.values()),
            "busy_s": sum(float(s.get("busy_s", 0.0)) for s in stats.values()),
        },
        "_result": result,
        "_campaign": campaign,
        "_inputs": inputs,
    }


def _wait_registered(
    address: str,
    spawned: dict[str, float],
    processes: list[subprocess.Popen],
    timeout: float = 60.0,
) -> dict[str, float]:
    """Poll the broker until every spawned worker is live; seconds from
    each spawn until its registration was first seen."""
    from repro.core.broker import BrokerClient

    client = BrokerClient(address, retry_s=5.0)
    pending = dict(spawned)
    startup: dict[str, float] = {}
    deadline = now() + timeout
    try:
        while pending:
            live = client.call("fleet").get("fleet", {}).get("live", {})
            seen = now()
            for worker_id in [w for w in pending if w in live]:
                startup[worker_id] = seen - pending.pop(worker_id)
            if not pending:
                break
            if any(p.poll() is not None for p in processes):
                raise RuntimeError("a queue worker exited before registering")
            if seen > deadline:
                raise RuntimeError(f"workers {sorted(pending)} never registered")
            time.sleep(0.005)
    finally:
        client.close()
    return startup


REPS = {
    "paper_serial": rep_paper_serial,
    "resume_grid": rep_resume_grid,
    "fleet_queue": rep_fleet_queue,
}
