"""Fault-injection and parity toolkit for the queue transport.

The helpers spawn ``ddt-explore worker --connect-broker`` subprocesses
and brokers, inject crashes and broker restarts, and read the
transport's observability surface (``crashes`` / ``requeues`` /
``workers_seen`` / ``results_received`` / ``quarantined``).

The contract every drill enforces is the determinism contract:
distribution -- including injected crashes, requeues and quarantines --
is a pure scheduling layer, so campaign results stay equal on
``SimulationRecord.content_key()`` to a serial run.
"""

import os
import socket
import subprocess
import sys
import threading
import time

import repro
from repro.core.broker import QueueTransport
from repro.core.campaign import CampaignScheduler
from repro.core.casestudies import CASE_STUDIES
from repro.core.transport import WORKER_CRASH_EXIT, WORKER_REJECTED_EXIT

#: Narrow-but-meaningful DDT library shared by the fast test sweeps.
CANDIDATES = ("AR", "SLL", "DLL(O)", "SLL(AR)")

#: Two configurations per app (the first is each study's reference).
NARROW = {study.name: list(study.configs[:2]) for study in CASE_STUDIES}


def content(log):
    """The content keys of one exploration log (wall time excluded)."""
    return [r.content_key() for r in log]


def worker_env():
    """Subprocess environment with ``src`` importable."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def free_port() -> int:
    """A TCP port that was free a moment ago.

    The broker-restart drill needs a *fixed* address the restarted
    broker can rebind, so the usual bind-to-0 trick (which hands every
    process a different port) does not apply.
    """
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def spawn_broker(
    address: str, *extra: str, journal: "str | None" = None,
    wait_s: float = 20.0,
) -> subprocess.Popen:
    """Launch a standalone `ddt-explore broker` and wait until it accepts.

    ``journal`` turns on the write-ahead log so a successor spawned on
    the same address + directory resumes where this process died.
    """
    args = [
        sys.executable,
        "-m",
        "repro.tools.explore",
        "broker",
        "--bind",
        address,
        "--quiet",
    ]
    if journal is not None:
        args += ["--journal", str(journal)]
    proc = subprocess.Popen(
        [*args, *extra],
        env=worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    host, _, port = address.rpartition(":")
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"broker exited early: {proc.returncode}")
        try:
            socket.create_connection((host, int(port)), timeout=1.0).close()
            return proc
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise RuntimeError(f"broker at {address} not accepting after {wait_s}s")


def spawn_worker(
    address: str, worker_id: str, *extra: str, capacity: "int | None" = None,
) -> subprocess.Popen:
    """Launch one `ddt-explore worker` subprocess against the broker."""
    args = [
        sys.executable,
        "-m",
        "repro.tools.explore",
        "worker",
        "--connect-broker",
        address,
        "--id",
        worker_id,
        "--quiet",
    ]
    if capacity is not None:
        args += ["--capacity", str(capacity)]
    return subprocess.Popen(
        [*args, *extra],
        env=worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_live(address: str, *worker_ids: str, timeout: float = 30.0) -> None:
    """Block until every id in ``worker_ids`` is under the broker's
    ``fleet.live``.

    A campaign of a few lane runs can finish before a worker spawned
    just ahead of it has registered; that worker then waits its whole
    ``--retry`` window for a first campaign.  Tests therefore start a
    campaign only once its workers are live.
    """
    from repro.core.broker import BrokerClient

    client = BrokerClient(address)
    try:
        deadline = time.monotonic() + timeout
        while not set(worker_ids) <= set(client.call("fleet")["fleet"]["live"]):
            if time.monotonic() > deadline:
                raise RuntimeError(f"workers {worker_ids} never registered")
            time.sleep(0.05)
    finally:
        client.close()


class FlakyWorker:
    """Fault-injection helper: a worker that crashes after N points.

    Spawns a ``--fail-after N`` worker subprocess and, each time it
    hard-exits with the injected-crash code, respawns it under the same
    worker id -- until ``max_crashes`` crashes have happened or the
    broker starts rejecting the id (quarantine).

    ``crashed`` is set on the first injected crash and ``rejected``
    when a respawn was turned away -- drills use them to sequence
    survivors deterministically.
    """

    def __init__(self, address: str, fail_after: int, max_crashes: int,
                 worker_id: str = "flaky") -> None:
        self.address = address
        self.fail_after = fail_after
        self.max_crashes = max_crashes
        self.worker_id = worker_id
        self.crashes = 0
        self.crashed = threading.Event()
        self.rejected = threading.Event()
        self.procs: list[subprocess.Popen] = []
        self._spawn()

    def _spawn(self) -> None:
        proc = spawn_worker(
            self.address, self.worker_id, "--fail-after", str(self.fail_after)
        )
        self.procs.append(proc)
        threading.Thread(target=self._watch, args=(proc,), daemon=True).start()

    def _watch(self, proc: subprocess.Popen) -> None:
        proc.wait()
        if proc.returncode == WORKER_REJECTED_EXIT:
            self.rejected.set()
        elif proc.returncode == WORKER_CRASH_EXIT:
            self.crashes += 1
            self.crashed.set()
            if self.crashes < self.max_crashes:
                self._spawn()

    def terminate(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            proc.wait(timeout=10)


# ----------------------------------------------------------------------
# parity assertions
# ----------------------------------------------------------------------
def assert_app_matches(scheduled, serial):
    """One application's scheduled results equal the serial baseline."""
    assert content(scheduled.step1.log) == content(serial.step1.log)
    assert scheduled.step1.survivors == serial.step1.survivors
    assert content(scheduled.step2.log) == content(serial.step2.log)
    assert scheduled.summary_row() == serial.summary_row()


def assert_matches(result, baseline):
    """A whole campaign's results equal the serial baseline, per app."""
    assert list(result.refinements) == list(baseline.refinements)
    for name, serial in baseline.refinements.items():
        assert_app_matches(result.refinements[name], serial)


def run_serial_baseline():
    """The serial four-app narrow campaign every drill compares against."""
    with CampaignScheduler(candidates=CANDIDATES, configs=NARROW) as campaign:
        return campaign.run()


# ----------------------------------------------------------------------
# the drills
# ----------------------------------------------------------------------
def _launch_after(event: threading.Event, launch, timeout: float = 60.0):
    """Start ``launch()`` on a watcher thread once ``event`` fires."""
    thread = threading.Thread(
        target=lambda: event.wait(timeout) and launch(), daemon=True
    )
    thread.start()
    return thread


def crash_requeue_drill(transport):
    """One injected crash: unresolved points land on the survivor.

    Dispatch is pull-based, so the survivor only joins once the flaky
    worker has provably crashed holding a lease -- making the requeue
    deterministic instead of racing the drain.

    The sweep uses the full DDT library: only cover runs are dispatched
    (one per DDT in step 1), and the narrow library leaves too few of
    them in flight for the crash to strand any.  The drill runs its own
    serial baseline of that sweep.
    """
    sweep = {"studies": ["url"], "configs": {"URL": NARROW["URL"]}}
    with CampaignScheduler(**sweep) as campaign:
        serial = campaign.run().refinements["URL"]
    flaky = FlakyWorker(transport.address, fail_after=2, max_crashes=1)
    steady_box: list[subprocess.Popen] = []

    def launch_steady():
        steady_box.append(spawn_worker(transport.address, "steady"))

    watcher = _launch_after(flaky.crashed, launch_steady)
    try:
        wait_live(transport.address, "flaky")
        with CampaignScheduler(transport=transport, **sweep) as campaign:
            result = campaign.run()
        watcher.join(timeout=60)
        assert steady_box and steady_box[0].wait(timeout=30) == 0
    finally:
        for steady in steady_box:
            if steady.poll() is None:
                steady.kill()
                steady.wait(timeout=10)
        flaky.terminate()
    scheduled = result.refinements["URL"]
    assert content(scheduled.step1.log) == content(serial.step1.log)
    assert content(scheduled.step2.log) == content(serial.step2.log)
    # the crash really happened and its in-flight points were requeued
    assert transport.crashes.get("flaky") == 1
    assert transport.requeues >= 1
    # one crash stays below the quarantine threshold
    assert result.quarantined == []
    return result


def quarantine_drill(transport):
    """Two crashes quarantine the id; the campaign still completes.

    Two apps' worth of points keep the queue busy across the flaky
    worker's respawns; the survivor is admitted once the flaky id has
    been rejected, so the quarantine is deterministic.

    Like :func:`crash_requeue_drill`, the sweep uses the full DDT library
    so enough cover runs stay queued across the respawns, and the drill
    runs its own serial baseline of it.
    """
    sweep = {
        "studies": ["url", "drr"],
        "configs": {"URL": NARROW["URL"], "DRR": NARROW["DRR"]},
    }
    with CampaignScheduler(**sweep) as campaign:
        serial_campaign = campaign.run()
    flaky = FlakyWorker(transport.address, fail_after=1, max_crashes=3)
    steady_box: list[subprocess.Popen] = []

    def launch_steady():
        steady_box.append(spawn_worker(transport.address, "steady"))

    watcher = _launch_after(flaky.rejected, launch_steady)
    try:
        wait_live(transport.address, "flaky")
        with CampaignScheduler(transport=transport, **sweep) as campaign:
            result = campaign.run()
        watcher.join(timeout=60)
        assert steady_box and steady_box[0].wait(timeout=30) == 0
    finally:
        for steady in steady_box:
            if steady.poll() is None:
                steady.kill()
                steady.wait(timeout=10)
        flaky.terminate()
    assert result.quarantined == ["flaky"]
    assert transport.crashes["flaky"] >= 2
    # identical records regardless of the chaos
    for name in ("URL", "DRR"):
        assert content(result.refinements[name].step1.log) == content(
            serial_campaign.refinements[name].step1.log
        )
        assert content(result.refinements[name].step2.log) == content(
            serial_campaign.refinements[name].step2.log
        )
        assert (
            result.refinements[name].summary_row()
            == serial_campaign.refinements[name].summary_row()
        )
    return result


def cache_rejoin_drill(serial_campaign, *, cache_dir, trace_store=None):
    """Kill a worker mid-campaign; the coordinator cache serves the rerun.

    Two campaigns share one coordinator record cache (``cache_dir``);
    workers keep no records of their own:

    1. *Crash and rejoin*: a single queue worker starts with
       ``--fail-after 4`` and hard-exits upon leasing its 4th point (the
       suite's kill -9 analogue: no goodbye, no ack); a watcher respawns
       the same id without the fault.  The broker requeues only the
       dead lease's unfinished points, so the campaign simulates exactly
       as many lane runs as the serial baseline.
    2. *Warm rerun*: a fresh broker and coordinator on the same cache,
       and no worker at all.  Every point is a cache hit, so nothing is
       simulated or dispatched.

    The sweep is the baseline's own four-app narrow campaign: its eight
    lane runs are enough for the 4th lease to land mid-campaign.  Both
    campaigns equal the serial baseline on ``content_key()``.
    """
    sweep = {
        "candidates": CANDIDATES,
        "configs": NARROW,
        "trace_store": trace_store,
    }

    # -- campaign 1: crash mid-flight, rejoin cold ---------------------
    transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
    procs = [spawn_worker(transport.address, "w1", "--fail-after", "4")]
    crashed = threading.Event()

    def rejoin() -> None:
        procs[0].wait()
        if procs[0].returncode != WORKER_CRASH_EXIT:
            return  # leave `crashed` unset so the drill fails loudly
        crashed.set()
        procs.append(spawn_worker(transport.address, "w1"))

    watcher = threading.Thread(target=rejoin, daemon=True)
    watcher.start()
    try:
        wait_live(transport.address, "w1")
        with CampaignScheduler(
            cache=cache_dir, transport=transport, **sweep
        ) as campaign:
            result = campaign.run()
        watcher.join(timeout=60)
        assert crashed.is_set(), "the injected mid-campaign crash never fired"
        assert procs[-1].wait(timeout=30) == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    # The crash and requeue really happened, below quarantine ...
    assert transport.crashes.get("w1") == 1
    assert transport.requeues >= 1
    assert result.quarantined == []
    # ... yet cost no lane run beyond the serial baseline's.
    assert result.stats.simulations == serial_campaign.stats.simulations
    assert_matches(result, serial_campaign)

    # -- campaign 2: the same sweep, served by the cache alone ---------
    transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
    with CampaignScheduler(
        cache=cache_dir, transport=transport, **sweep
    ) as campaign:
        warm = campaign.run()
    assert warm.stats.simulations == 0
    assert warm.stats.cache_hits == warm.stats.points == result.stats.points
    assert transport.results_received == 0
    assert_matches(warm, serial_campaign)
    return warm


def broker_restart_drill(serial_campaign, *, journal_dir,
                         trace_store=None, cache=None):
    """Hard-kill the broker mid-campaign; a successor resumes its journal.

    The broker runs as a standalone ``ddt-explore broker --journal DIR``
    process with the coordinator and two workers attached to it.  Once
    the campaign is provably mid-flight (>= 8 points resolved, many
    remaining), the broker is SIGKILLed -- no goodbye, no flush beyond
    the write-ahead rule -- and a fresh process is started on the *same*
    address and journal directory.  The successor replays the journal,
    requeues whatever was leased or delivered-but-unacked, and everyone
    reconnects transparently:

    - results stay bit-identical to serial on ``content_key()``,
    - every simulated point is received exactly once (the seen-token
      journal rejects replayed ``push_result`` frames as duplicates),
    - nobody is blamed: a broker restart is not a worker crash, so the
      quarantine list stays empty and both workers exit 0,
    - the coordinator observed the outage (``transport.outages >= 1``),
    - both workers appear on the result's per-worker records.
    """
    address = f"127.0.0.1:{free_port()}"
    brokers = [spawn_broker(address, journal=str(journal_dir))]
    transport = QueueTransport(address, worker_timeout=60, max_outage_s=60)
    workers = [
        spawn_worker(address, "w1"),
        spawn_worker(address, "w2"),
    ]
    mid_campaign = threading.Event()
    done_points = [0]

    def progress(phase, done, total, detail):
        done_points[0] += 1
        if done_points[0] >= 8:
            mid_campaign.set()

    def choreography():
        if not mid_campaign.wait(120):
            return
        brokers[0].kill()  # SIGKILL: only the journal survives
        brokers[0].wait(timeout=10)
        brokers.append(spawn_broker(address, journal=str(journal_dir)))

    stagehand = threading.Thread(target=choreography, daemon=True)
    stagehand.start()
    try:
        wait_live(address, "w1", "w2")
        with CampaignScheduler(
            candidates=CANDIDATES,
            configs=NARROW,
            trace_store=trace_store,
            cache=cache,
            transport=transport,
            progress=progress,
        ) as campaign:
            result = campaign.run()
        stagehand.join(timeout=60)
        assert len(brokers) == 2, "the mid-campaign restart never happened"
        assert [proc.wait(timeout=30) for proc in workers] == [0, 0]
    finally:
        for proc in [*workers, *brokers]:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    assert_matches(result, serial_campaign)
    assert transport.outages >= 1
    assert result.broker_outages >= 1
    assert transport.results_received == result.stats.simulations
    assert result.quarantined == []
    assert {"w1", "w2"} <= transport.workers_seen
    fleet = result.worker_stats
    assert set(fleet) == {"w1", "w2"}
    assert all(ws["points"] >= 1 for ws in fleet.values())
    return result


def concurrent_campaign_drill(*, journal_dir, trace_store_a=None,
                              trace_store_b=None):
    """Two campaigns, one journaled broker, one shared worker pool.

    The multi-tenant drill: a standalone ``broker --journal`` admits two
    concurrent campaigns (URL at priority 2, DRR at priority 1), each
    driven by its own coordinator thread, while two shared workers lease
    chunks from whichever tenant the broker's deficit round-robin picks.
    Each tenant sweeps its study's full configuration list (one lane
    run in step 1, four in step 2); the drill runs its own serial
    baseline of those sweeps.

    The broker is SIGKILLed and a successor started on the same address
    + journal while both campaigns are provably mid-flight, without
    relying on timing: each coordinator stops at its first result until
    the other has one too and the successor is up.  So the write-ahead
    log holds both campaigns with result entries (and undelivered
    acks), and both still have points to resolve.  A count of resolved
    points is no such gauge, and neither is work queued at the broker:
    one lane run resolves a whole node at once and a tenant has nothing
    queued between its steps, so a fast tenant could finish before the
    other had any result and never see the restart.  Asserts:

    - both campaigns finish with per-app ``content_key()`` parity
      against the serial baseline (result isolation: neither tenant
      drained or poisoned the other's results),
    - dispatch interleaved: inside the window where both campaigns were
      producing results, each of them made progress (neither starved),
    - both coordinators rode out the broker restart
      (``outages >= 1``), received every simulated point exactly once,
      and quarantined nobody; both workers exit 0.

    Returns ``(url_result, drr_result, metrics)`` where ``metrics``
    reports the per-campaign point counts, the overlap window length,
    and the number of tenant switches in the merged result timeline --
    the measured interleaving numbers the ROADMAP item closes with.
    """
    from repro.core.broker import BrokerClient

    with CampaignScheduler(studies=["url", "drr"], candidates=CANDIDATES) as campaign:
        serial_campaign = campaign.run()
    address = f"127.0.0.1:{free_port()}"
    brokers = [spawn_broker(address, journal=str(journal_dir))]
    timeline: list[tuple[float, str]] = []
    counts = {"URL": 0, "DRR": 0}
    # Both first results, then the restart (the choreography is the
    # third party), then both coordinators go on.
    first_results = threading.Barrier(3)
    restarted = threading.Event()

    def tracker(tag):
        def progress(phase, done, total, detail):
            counts[tag] += 1
            timeline.append((time.monotonic(), tag))
            if counts[tag] == 1:
                try:
                    first_results.wait(timeout=240)
                except threading.BrokenBarrierError:
                    pass  # the drill fails on its restart assertion
                restarted.wait(timeout=240)
        return progress

    results: dict = {}
    errors: list = []

    def run_one(tag, study, priority, trace_store):
        transport = QueueTransport(
            address, worker_timeout=120, max_outage_s=60, priority=priority
        )
        try:
            with CampaignScheduler(
                studies=[study],
                candidates=CANDIDATES,
                trace_store=trace_store,
                transport=transport,
                progress=tracker(tag),
                # Per-point dispatch: these narrow sweeps fit in a
                # handful of auto-sized chunks, which leaves the fair
                # scheduler almost nothing to arbitrate; point leases
                # make the interleaving observable (and assertable).
                chunk_points=1,
            ) as campaign:
                results[tag] = (campaign.run(), transport)
        except BaseException as exc:  # surfaced to the drill's caller
            errors.append((tag, exc))
            first_results.abort()

    coordinators = [
        threading.Thread(
            target=run_one, args=("URL", "url", 2.0, trace_store_a), daemon=True
        ),
        threading.Thread(
            target=run_one, args=("DRR", "drr", 1.0, trace_store_b), daemon=True
        ),
    ]
    for thread in coordinators:
        thread.start()

    # Admit the shared workers only once *both* tenants are announced,
    # so neither drains alone and every lease is a scheduling decision.
    gate = BrokerClient(address, max_outage_s=60)
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if errors:
                break
            if int(gate.call("campaigns").get("running") or 0) >= 2:
                break
            time.sleep(0.1)
        else:
            raise RuntimeError("both campaigns never announced")
    finally:
        gate.close()

    workers = [spawn_worker(address, w) for w in ("w1", "w2")]

    def choreography():
        try:
            first_results.wait(timeout=240)
            brokers[0].kill()  # SIGKILL: only the journal survives
            brokers[0].wait(timeout=10)
            brokers.append(spawn_broker(address, journal=str(journal_dir)))
        except threading.BrokenBarrierError:
            pass
        finally:
            restarted.set()

    stagehand = threading.Thread(target=choreography, daemon=True)
    stagehand.start()
    try:
        for thread in coordinators:
            thread.join(timeout=600)
        if errors:
            raise AssertionError(
                f"campaign(s) failed: {[tag for tag, _ in errors]}"
            ) from errors[0][1]
        assert not any(thread.is_alive() for thread in coordinators)
        stagehand.join(timeout=60)
        assert len(brokers) == 2, "the mid-run broker restart never happened"
        assert [proc.wait(timeout=30) for proc in workers] == [0, 0]
    finally:
        for proc in [*workers, *brokers]:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    # per-tenant parity and exactly-once receipt, broker restart survived
    for tag in ("URL", "DRR"):
        result, transport = results[tag]
        assert_app_matches(
            result.refinements[tag], serial_campaign.refinements[tag]
        )
        assert result.quarantined == []
        assert transport.outages >= 1
        assert result.broker_outages >= 1
        assert transport.results_received == result.stats.simulations

    # Interleaving: each tenant resolved points while the other still
    # had work in flight (the result timeline is not a concatenation of
    # one campaign after the other), and the merged arrival sequence
    # switches tenants at least twice -- the deficit round-robin served
    # both, quantum by quantum, instead of draining one to starvation.
    events = sorted(timeline)
    sequence = [tag for _, tag in events]
    first = {tag: min(t for t, w in events if w == tag) for tag in counts}
    last = {tag: max(t for t, w in events if w == tag) for tag in counts}
    assert first["DRR"] < last["URL"] and first["URL"] < last["DRR"], (
        "no interleaved dispatch observed"
    )
    switches = sum(1 for a, b in zip(sequence, sequence[1:]) if a != b)
    assert switches >= 2, f"campaigns ran back-to-back (switches={switches})"
    metrics = {
        "points": dict(counts),
        "overlap_s": max(
            0.0, min(last.values()) - max(first.values())
        ),
        "switches": switches,
    }
    return results["URL"][0], results["DRR"][0], metrics
