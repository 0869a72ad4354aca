"""``ddt-explore`` -- the automated exploration tool.

Command-line front end of the 3-step methodology (the paper's
"automated tool" of Figure 2): pick a case study (or build a custom
configuration sweep), run the three steps, and write logs, Pareto
curves and charts to a results directory.

Examples
--------
Run the URL case study end to end::

    ddt-explore url --out results/url

Explore Route on two traces with a 256-entry table::

    ddt-explore route --traces BWY-I ANL --param radix_size=256

Print the dominance profile only (step 0)::

    ddt-explore drr --profile-only

Run *all four* case studies as one scheduled campaign -- one task
graph over a shared worker pool, per-app cache shards, persistent trace
store::

    ddt-explore campaign --apps all --workers 2 --cache --trace-store

Incrementally re-run a campaign after editing one app's grid or one
trace profile (unaffected apps replay from cache)::

    ddt-explore campaign --apps all --workers 2 --resume --trace-store

Distribute a campaign through a broker instead of a local pool, so
workers can join, leave and rejoin mid-campaign (elastic fleet; each
worker keeps its ``--capacity`` of lane runs leased, so dispatch is
capacity-weighted); workers retry the connection, so start order does
not matter::

    ddt-explore broker --bind 127.0.0.1:4447      # or skip this and let
                                                  # the campaign embed one
    ddt-explore campaign --apps all --transport queue \
        --broker 127.0.0.1:4447 --trace-store
    ddt-explore worker --connect-broker 127.0.0.1:4447 --capacity 4
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Sequence

from repro.core.application_level import profile_dominant_structures
from repro.core.campaign import CampaignScheduler
from repro.core.casestudies import CASE_STUDIES, case_study, case_study_names
from repro.core.engine import ExplorationEngine
from repro.core.pareto_level import CURVE_PAIRS
from repro.core.reporting import (
    baseline_comparison,
    best_record_summary,
    comparison_report,
    render_table,
    table1_report,
    table2_report,
    write_curves_csv,
)
from repro.core.selection import DEFAULT_QUANTILE, QuantileUnion
from repro.core.simulate import SimulationEnvironment
from repro.net.config import NetworkConfig, make_configs
from repro.net.profiles import trace_names
from repro.net.tracestore import DEFAULT_TRACE_DIR
from repro.tools.charts import pareto_chart

__all__ = [
    "main",
    "build_parser",
    "build_broker_parser",
    "build_campaign_parser",
    "build_worker_parser",
    "broker_main",
    "campaign_main",
    "worker_main",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddt-explore",
        description="3-step DDT refinement exploration (Bartzas et al., DATE 2006)",
    )
    parser.add_argument(
        "case",
        choices=[name.lower() for name in case_study_names()],
        help=(
            "case study to explore (or the 'campaign' subcommand to "
            "schedule several at once, 'worker' to serve a distributed "
            "campaign, 'broker' to run a standalone campaign broker; "
            "see ddt-explore campaign/worker/broker --help)"
        ),
    )
    parser.add_argument(
        "--traces",
        nargs="+",
        metavar="TRACE",
        help=f"override the trace list (known: {', '.join(trace_names())})",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override an application parameter (repeatable)",
    )
    parser.add_argument(
        "--quantile",
        type=float,
        default=DEFAULT_QUANTILE,
        help=f"step-1 survivor quantile per metric (default {DEFAULT_QUANTILE})",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="results directory (default: results/<case>)",
    )
    parser.add_argument(
        "--profile-only",
        action="store_true",
        help="only print the dominant-structure profile and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="simulation worker processes (default 0: serial in-process)",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=ExplorationEngine.DEFAULT_CACHE_DIR,
        default=None,
        metavar="DIR",
        help=(
            "persist simulation records under DIR (default "
            f"{ExplorationEngine.DEFAULT_CACHE_DIR}/) and reuse them on "
            "re-runs with unchanged model parameters"
        ),
    )
    return parser


def _parse_value(raw: str) -> Any:
    """int, then float, then bare string."""
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def _parse_params(pairs: Sequence[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        params[key] = _parse_value(raw)
    return params


def build_campaign_parser() -> argparse.ArgumentParser:
    """Parser of the ``ddt-explore campaign`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="ddt-explore campaign",
        description=(
            "schedule several case studies as one exploration campaign: "
            "global batches over a shared worker pool, per-app cache "
            "shards, persistent trace store"
        ),
    )
    parser.add_argument(
        "--apps",
        nargs="+",
        default=["all"],
        metavar="APP",
        help=(
            "case studies to schedule: 'all' (default) or any of "
            f"{', '.join(name.lower() for name in case_study_names())}"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="simulation worker processes (default 0: serial in-process)",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=ExplorationEngine.DEFAULT_CACHE_DIR,
        default=None,
        metavar="DIR",
        help=(
            "persist simulation records in per-app shards under "
            f"DIR/<app>/ (default {ExplorationEngine.DEFAULT_CACHE_DIR}/)"
        ),
    )
    parser.add_argument(
        "--trace-store",
        nargs="?",
        const=DEFAULT_TRACE_DIR,
        default=None,
        metavar="DIR",
        help=(
            "persist generated traces under DIR (default "
            f"{DEFAULT_TRACE_DIR}/) so workers and re-runs load instead "
            "of regenerating"
        ),
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="APP:KEY=V1,V2,...",
        help=(
            "add a sensitivity grid for one app, e.g. "
            "route:radix_size=64,512 (repeatable)"
        ),
    )
    parser.add_argument(
        "--candidates",
        nargs="+",
        default=None,
        metavar="DDT",
        help="restrict the DDT library to these names (default: all 10)",
    )
    parser.add_argument(
        "--traces",
        nargs="+",
        default=None,
        metavar="TRACE",
        help=(
            "replace every scheduled app's sweep with default-parameter "
            "configurations on these traces (narrow smoke sweeps; known: "
            f"{', '.join(trace_names())})"
        ),
    )
    parser.add_argument(
        "--transport",
        choices=["local", "queue"],
        default="local",
        help=(
            "where cache-miss points execute: 'local' (default) uses the "
            "in-process pool of --workers; 'queue' routes points through "
            "a campaign broker that `ddt-explore worker --connect-broker` "
            "processes pull from (elastic fleet)"
        ),
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "listen address of the embedded queue broker (default "
            "127.0.0.1:0 -- an ephemeral port, printed at start)"
        ),
    )
    parser.add_argument(
        "--broker",
        default=None,
        metavar="HOST:PORT",
        help=(
            "connect --transport queue to an externally run "
            "`ddt-explore broker` instead of embedding one at --bind"
        ),
    )
    parser.add_argument(
        "--worker-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help=(
            "fail the run after this long with work pending but no "
            "registered workers (queue transport; default 120)"
        ),
    )
    parser.add_argument(
        "--max-outage",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "queue transport only: ride out a broker outage up to this "
            "long by reconnecting with backoff (default 60; 0 fails the "
            "campaign on the first lost broker call)"
        ),
    )
    parser.add_argument(
        "--priority",
        type=float,
        default=None,
        metavar="WEIGHT",
        help=(
            "queue transport only: this campaign's fair-share weight on "
            "a multi-tenant broker (default 1.0; a priority-2 campaign "
            "is offered twice the work of a priority-1 one)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "incremental re-run: compare against the recorded campaign "
            "manifest, replay unaffected apps from the persistent cache "
            "and resimulate only the delta (implies --cache)"
        ),
    )
    parser.add_argument(
        "--quantile",
        type=float,
        default=DEFAULT_QUANTILE,
        help=f"step-1 survivor quantile per metric (default {DEFAULT_QUANTILE})",
    )
    parser.add_argument(
        "--out",
        default=os.path.join("results", "campaign"),
        metavar="DIR",
        help="results directory (default: results/campaign)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return parser


def _parse_grids(pairs: Sequence[str]) -> dict[str, dict[str, list[Any]]]:
    """Parse repeated ``APP:KEY=V1,V2`` options into a grids mapping."""
    grids: dict[str, dict[str, list[Any]]] = {}
    for pair in pairs:
        app, sep, spec = pair.partition(":")
        if not sep or "=" not in spec:
            raise SystemExit(f"--grid expects APP:KEY=V1,V2,..., got {pair!r}")
        key, _, raw = spec.partition("=")
        values = [_parse_value(v) for v in raw.split(",") if v]
        if not values:
            raise SystemExit(f"--grid {pair!r} has no values")
        grids.setdefault(_lookup_case(app).name, {})[key] = values
    return grids


def _lookup_case(name: str):
    """A case study by name, exiting cleanly on a typo."""
    try:
        return case_study(name)
    except KeyError as exc:
        raise SystemExit(f"ddt-explore campaign: {exc.args[0]}") from None


def build_worker_parser() -> argparse.ArgumentParser:
    """Parser of the ``ddt-explore worker`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="ddt-explore worker",
        description=(
            "run one simulation worker for a distributed campaign: "
            "connect to a campaign broker, hydrate the simulation "
            "environment (and traces, from a shared trace store when the "
            "campaign uses one), then lease lane runs and push results back "
            "until every campaign it served has ended"
        ),
    )
    parser.add_argument(
        "--connect-broker",
        required=True,
        metavar="HOST:PORT",
        help=(
            "broker address (what `ddt-explore broker` or `campaign "
            "--transport queue` printed); this worker pulls tasks, so it "
            "may join, leave and rejoin mid-campaign"
        ),
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=1,
        metavar="N",
        help=(
            "advertised capacity: parallel simulation slots on this "
            "worker (capacity > 1 runs a local process pool; dispatch is "
            "weighted by it; default 1)"
        ),
    )
    parser.add_argument(
        "--id",
        default=None,
        metavar="NAME",
        help=(
            "stable worker identity for the broker's crash/quarantine "
            "accounting (default: <hostname>-<pid>)"
        ),
    )
    parser.add_argument(
        "--retry",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="keep retrying the initial connection this long (default 30)",
    )
    parser.add_argument(
        "--max-outage",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "reconnect window: ride out a broker outage up to this long "
            "by reconnecting with backoff and re-registering, then exit "
            "4 (default 60; 0 disables reconnecting)"
        ),
    )
    parser.add_argument(
        "--fail-after",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fault-injection harness: hard-exit (simulated crash, no "
            "goodbye) upon leasing the N-th lane run"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return parser


def worker_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``ddt-explore worker``.

    Exit codes: ``0`` clean shutdown, ``3`` rejected/quarantined id,
    ``4`` (:data:`~repro.core.transport.WORKER_CONNECT_EXIT`) when the
    broker could never be reached (the last error is printed to stderr
    even under ``--quiet``), ``70`` an injected ``--fail-after`` crash.
    """
    from repro.core.broker import serve_queue_worker
    from repro.core.transport import WORKER_CONNECT_EXIT, TransportError

    parser = build_worker_parser()
    args = parser.parse_args(argv)
    if args.fail_after is not None and args.fail_after < 1:
        parser.error("--fail-after must be >= 1")
    if args.capacity < 1:
        parser.error("--capacity must be >= 1")
    if args.max_outage is not None and args.max_outage < 0:
        parser.error("--max-outage must be >= 0")

    def log(message: str) -> None:
        if not args.quiet:
            sys.stderr.write(f"{message}\n")
            sys.stderr.flush()

    try:
        return serve_queue_worker(
            args.connect_broker,
            worker_id=args.id,
            capacity=args.capacity,
            retry_s=args.retry,
            max_outage_s=60.0 if args.max_outage is None else args.max_outage,
            fail_after=args.fail_after,
            log=log,
        )
    except TransportError as exc:
        # Never exit 0 on a failed broker connection: print the last
        # error (stderr, regardless of --quiet) and use a dedicated code
        # so supervisors and CI can tell "never connected" from "done".
        sys.stderr.write(f"ddt-explore worker: {exc}\n")
        sys.stderr.flush()
        return WORKER_CONNECT_EXIT


def build_broker_parser() -> argparse.ArgumentParser:
    """Parser of the ``ddt-explore broker`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="ddt-explore broker",
        description=(
            "run a standalone campaign broker: queue-backed campaigns "
            "(`campaign --transport queue --broker HOST:PORT`) push "
            "tasks through it and `ddt-explore worker --connect-broker` "
            "processes pull them, so worker lifetime is decoupled from "
            "the coordinator process"
        ),
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "listen address (default 127.0.0.1:0 -- an ephemeral port, "
            "printed at start); expose only to trusted networks, the "
            "wire format is pickle"
        ),
    )
    parser.add_argument(
        "--ttl",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help=(
            "worker heartbeat TTL: a worker silent this long is presumed "
            "crashed and its leased tasks are requeued (default 15)"
        ),
    )
    parser.add_argument(
        "--quarantine-after",
        type=int,
        default=2,
        metavar="N",
        help="crash count at which a worker id is quarantined (default 2)",
    )
    parser.add_argument(
        "--run-for",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long (default: serve until interrupted)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "journal broker state (each campaign's lane runs, results and "
            "seen tokens, leases, crash counts) to a write-ahead log "
            "under DIR; a broker restarted on the same DIR resumes every "
            "campaign where the previous process died (a journal "
            "written by an older build is refused)"
        ),
    )
    parser.add_argument(
        "--compact-every",
        type=int,
        default=512,
        metavar="N",
        help=(
            "fold the journal into a fresh snapshot every N records "
            "(default 512; ignored without --journal)"
        ),
    )
    parser.add_argument(
        "--status",
        default=None,
        metavar="HOST:PORT",
        help=(
            "query a *running* broker instead of serving: print its "
            "status (per-campaign queue depths, lease ages, fleet "
            "table, journal position) as JSON on stdout and exit"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    return parser


def _broker_status_main(address: str) -> int:
    """Implement ``ddt-explore broker --status HOST:PORT``."""
    import json

    from repro.core.broker import BrokerClient
    from repro.core.transport import TransportError

    try:
        # One connection attempt: a dead address fails at once, and
        # pollers (e.g. the CI smoke loops) retry on their own schedule.
        client = BrokerClient(address, retry_s=0.0)
        try:
            reply = client.call("status")
        finally:
            client.close()
    except TransportError as exc:
        sys.stderr.write(f"ddt-explore broker --status: {exc}\n")
        return 1
    if not reply.get("ok"):
        sys.stderr.write(
            f"ddt-explore broker --status: {reply.get('error')}\n"
        )
        return 1
    print(json.dumps(reply["status"], indent=2, sort_keys=True))
    return 0


def broker_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``ddt-explore broker``.

    Serves until ``--run-for`` expires or a SIGINT/SIGTERM arrives;
    either way the shutdown is clean -- the journal is flushed and
    compacted and the campaign announcement withdrawn -- and the exit
    code is 0.  With ``--status HOST:PORT`` it instead queries a
    running broker and prints its status as JSON.
    """
    import signal
    import threading

    from repro.core.broker import EmbeddedBroker

    parser = build_broker_parser()
    args = parser.parse_args(argv)
    if args.status is not None:
        return _broker_status_main(args.status)
    if args.ttl <= 0:
        parser.error("--ttl must be > 0")
    if args.quarantine_after < 1:
        parser.error("--quarantine-after must be >= 1")
    if args.compact_every < 1:
        parser.error("--compact-every must be >= 1")
    # A Ctrl-C (or TERM from a supervisor) must be a *clean* shutdown --
    # flush+compact the journal, withdraw the announcement, exit 0 --
    # not a KeyboardInterrupt traceback mid-close.  The handlers go in
    # before the broker is built: its listener accepts from then on, so a
    # signal may follow the first reply at once.
    stop = threading.Event()
    installed: list[tuple[Any, Any]] = []
    if threading.current_thread() is threading.main_thread():
        def _handle(signum: int, frame: Any) -> None:
            stop.set()

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                installed.append((signum, signal.signal(signum, _handle)))
            except (ValueError, OSError):  # pragma: no cover
                pass
    broker = None
    try:
        broker = EmbeddedBroker(
            args.bind,
            heartbeat_ttl=args.ttl,
            quarantine_after=args.quarantine_after,
            journal=args.journal,
            compact_every=args.compact_every,
        )
        broker.start()
        if not args.quiet:
            durable = f" (journal: {args.journal})" if args.journal else ""
            sys.stderr.write(
                f"broker listening on {broker.address}{durable} -- run campaigns "
                f"with: ddt-explore campaign --transport queue --broker "
                f"{broker.address}\nand workers with: ddt-explore worker "
                f"--connect-broker {broker.address}\n"
            )
            sys.stderr.flush()
        deadline = time.time() + args.run_for if args.run_for is not None else None
        while not stop.is_set() and (deadline is None or time.time() < deadline):
            stop.wait(0.2)
    except KeyboardInterrupt:  # no handler installed (non-main thread)
        pass
    finally:
        try:
            if broker is not None:
                broker.drop_announcement()
                broker.close()
        finally:
            for signum, previous in installed:
                try:
                    signal.signal(signum, previous)
                except (ValueError, OSError):  # pragma: no cover
                    pass
    if not args.quiet:
        sys.stderr.write("broker: clean shutdown\n")
        sys.stderr.flush()
    return 0


def campaign_main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``ddt-explore campaign``."""
    parser = build_campaign_parser()
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.resume and args.cache is None:
        args.cache = ExplorationEngine.DEFAULT_CACHE_DIR
    if any(app.lower() == "all" for app in args.apps):
        studies = list(CASE_STUDIES)
    else:
        studies = [_lookup_case(app) for app in dict.fromkeys(args.apps)]
    grids = _parse_grids(args.grid)

    configs = None
    if args.traces is not None:
        unknown = set(args.traces) - set(trace_names())
        if unknown:
            parser.error(f"unknown traces: {sorted(unknown)}")
        narrowed = list(make_configs(list(dict.fromkeys(args.traces))))
        configs = {study.name: list(narrowed) for study in studies}

    transport = None
    if args.broker is not None and args.transport != "queue":
        parser.error("--broker applies to --transport queue only")
    if args.max_outage is not None and args.transport != "queue":
        parser.error("--max-outage applies to --transport queue only")
    if args.max_outage is not None and args.max_outage < 0:
        parser.error("--max-outage must be >= 0")
    if args.priority is not None and args.transport != "queue":
        parser.error("--priority applies to --transport queue only")
    if args.priority is not None and not 0 < args.priority < float("inf"):
        parser.error("--priority must be a finite number > 0")
    if args.transport == "queue":
        from repro.core.broker import QueueTransport

        if args.workers:
            parser.error("--workers applies to the local transport only")

        def on_outage(message: str) -> None:
            # Surface survived broker restarts in the progress stream.
            sys.stderr.write(f"\n[transport] {message}\n")
            sys.stderr.flush()

        queue_opts = {
            "worker_timeout": args.worker_timeout,
            "max_outage_s": 60.0 if args.max_outage is None else args.max_outage,
            "priority": 1.0 if args.priority is None else args.priority,
            "on_outage": None if args.quiet else on_outage,
        }
        if args.broker is not None:
            transport = QueueTransport(args.broker, **queue_opts)
        else:
            transport = QueueTransport(bind=args.bind, **queue_opts)
        sys.stderr.write(
            f"campaign broker at {transport.address} -- connect workers "
            f"with: ddt-explore worker --connect-broker {transport.address}\n"
        )
        sys.stderr.flush()

    def progress(phase: str, done: int, total: int, detail: str) -> None:
        if args.quiet:
            return
        sys.stderr.write(f"\r[{phase}] {done}/{total} {detail:<48.48}")
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    started = time.time()
    try:
        campaign = CampaignScheduler(
            studies=studies,
            candidates=args.candidates,
            policy=QuantileUnion(args.quantile),
            configs=configs,
            grids=grids,
            workers=args.workers,
            cache=args.cache,
            trace_store=args.trace_store,
            transport=transport,
            progress=progress,
            resume=args.resume,
        )
    except (KeyError, ValueError) as exc:
        if transport is not None:
            transport.close()
        parser.error(str(exc.args[0]))
    with campaign:
        result = campaign.run()
    elapsed = time.time() - started

    for name, refinement in result.refinements.items():
        app_dir = os.path.join(args.out, name.lower())
        os.makedirs(app_dir, exist_ok=True)
        refinement.step2.log.write_csv(os.path.join(app_dir, "exploration_log.csv"))
        for x_metric, y_metric in CURVE_PAIRS:
            write_curves_csv(
                refinement.step3.curves[(x_metric, y_metric)],
                app_dir,
                f"pareto_{x_metric}_{y_metric}",
            )

    refinements = list(result.refinements.values())
    if transport is not None:
        mode = f"{args.transport} transport"
    elif args.workers:
        mode = f"{args.workers} workers"
    else:
        mode = "serial"
    print(
        f"\ncampaign: {len(refinements)} case studies in {elapsed:.1f}s ({mode})"
    )
    stats = result.stats
    print(
        f"engine: {stats.simulations} simulated, {stats.composed} composed, "
        f"{stats.cache_hits} served from cache, {stats.batches} batches"
    )
    if transport is not None:
        print(
            f"transport: {transport.results_received} points over "
            f"{len(transport.workers_seen)} workers, "
            f"{transport.requeues} requeued"
        )
        if result.broker_outages:
            print(
                f"broker outages survived: {result.broker_outages} "
                "(reconnected; results unaffected)"
            )
        if result.quarantined:
            print(f"quarantined workers: {', '.join(result.quarantined)}")
        if result.worker_stats:
            print(
                render_table(
                    ["worker", "capacity", "points", "points/s"],
                    [
                        (
                            worker,
                            ws["capacity"],
                            ws["points"],
                            f"{ws['throughput']:.1f}",
                        )
                        for worker, ws in sorted(result.worker_stats.items())
                    ],
                )
            )
    inc = result.incremental
    print(
        f"incremental: {inc.reused} points reused, "
        f"{inc.resimulated} resimulated, {inc.composed} composed"
    )
    if args.resume:
        print(
            render_table(
                ["app", "status", "reused", "resimulated", "composed"],
                inc.rows(),
            )
        )
    if result.trace_counters:
        t = result.trace_counters
        print(
            f"trace store: {t['generations']} generated, "
            f"{t['disk_loads']} loaded from disk, {t['memo_hits']} memo hits"
        )
    print()
    print(table1_report(refinements))
    print()
    print(table2_report(refinements))

    front = result.cross_app_front()
    print("\nCross-app normalised time-energy front (fractions of each")
    print("app's worst Pareto-optimal point on its reference config):")
    print(
        render_table(
            ["choice", "time", "energy"],
            [(p.label, f"{p.time_frac:.2f}", f"{p.energy_frac:.2f}") for p in front],
        )
    )
    print(f"\nPer-app logs and curve CSVs written to {args.out}/")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    if argv and argv[0] == "worker":
        return worker_main(argv[1:])
    if argv and argv[0] == "broker":
        return broker_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    study = case_study(args.case)
    out_dir = args.out or os.path.join("results", study.name.lower())

    if args.traces or args.param:
        params = _parse_params(args.param)
        unknown = set(args.traces or ()) - set(trace_names())
        if unknown:
            parser.error(f"unknown traces: {sorted(unknown)}")
        try:
            study.app_cls.check_params(params)
        except ValueError as exc:
            parser.error(str(exc))
        traces = list(args.traces) if args.traces else sorted(
            {c.trace_name for c in study.configs}
        )
        sweeps = {k: [v] for k, v in params.items()}
        configs = make_configs(traces, sweeps or None)
    else:
        configs = list(study.configs)

    env = SimulationEnvironment()

    if args.profile_only:
        profile = profile_dominant_structures(study.app_cls, configs[0], env)
        rows = [(name, accesses) for name, accesses in profile.items()]
        print(f"{study.name} dominant-structure profile on {configs[0].label}:")
        print(render_table(["structure", "accesses"], rows))
        return 0

    started = time.time()

    def progress(step: str, done: int, total: int, detail: str) -> None:
        if args.quiet:
            return
        sys.stderr.write(f"\r[{step}] {done}/{total} {detail:<40.40}")
        if done == total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    engine = ExplorationEngine(env=env, workers=args.workers, cache=args.cache)
    refinement = study.refinement(
        policy=QuantileUnion(args.quantile),
        progress=progress,
        configs=configs,
        engine=engine,
    )
    try:
        result = refinement.run()
    finally:
        engine.close()
    elapsed = time.time() - started

    os.makedirs(out_dir, exist_ok=True)
    result.step2.log.write_csv(os.path.join(out_dir, "exploration_log.csv"))
    for pair in CURVE_PAIRS:
        write_curves_csv(
            result.step3.curves[pair], out_dir, f"pareto_{pair[0]}_{pair[1]}"
        )

    ref = result.step1.reference_config.label
    print(f"\n{study.name}: 3-step exploration finished in {elapsed:.1f}s")
    stats = engine.stats
    mode = f"{args.workers} workers" if args.workers else "serial"
    print(
        f"engine: {stats.simulations} simulated, {stats.composed} composed, "
        f"{stats.cache_hits} served from cache ({mode})"
    )
    print(
        render_table(
            ["Exhaustive", "Reduced", "Pareto-optimal", "Reduction"],
            [
                (
                    result.exhaustive_simulations,
                    result.reduced_simulations,
                    result.pareto_optimal_count,
                    f"{result.reduction_fraction:.0%}",
                )
            ],
        )
    )
    print(f"\nStep-1 survivors ({len(result.step1.survivors)}):")
    print("  " + ", ".join(dict.fromkeys(result.step1.survivors)))

    curve = result.step3.curves[("time_s", "energy_mj")][ref]
    print()
    print(pareto_chart(result.step2.log, curve))

    print("\nPer-metric best combinations on the reference configuration:")
    ref_log = result.step2.log.for_config(ref)
    for metric in ("energy_mj", "time_s", "accesses", "footprint_bytes"):
        best = ref_log.best_by(metric)
        print(f"  {metric:16s} {best_record_summary(best)}")

    baseline = "+".join(["SLL"] * len(study.app_cls.dominant_structures))
    try:
        savings = baseline_comparison(result.step1.log, ref, baseline)
        print()
        print(
            comparison_report(
                savings,
                f"Best explored vs. original NetBench implementation ({baseline}):",
            )
        )
    except ValueError:
        pass

    print(f"\nLogs and curve CSVs written to {out_dir}/")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
