"""Tests of the embedded campaign broker and the queue transport.

The broker decouples worker lifetime from the coordinator: workers pull
tasks and push results through Redis-like queues, heartbeat with a TTL,
and may join, leave and rejoin mid-campaign.  None of that may show in
the results -- every drill gates on ``SimulationRecord.content_key()``
parity with the serial baseline (drills in ``tests/support/faults.py``).
"""

import json
import socket
import threading
import time

import pytest

from support.faults import (
    CANDIDATES,
    NARROW,
    assert_matches,
    broker_restart_drill,
    cache_rejoin_drill,
    concurrent_campaign_drill,
    crash_requeue_drill,
    quarantine_drill,
    spawn_worker,
    wait_live,
)

from repro.apps import UrlApp
from repro.core import broker as broker_module
from repro.core.broker import (
    BROKER_PROTOCOL,
    BrokerClient,
    BrokerUnavailableError,
    EmbeddedBroker,
    QueueTransport,
)
from repro.core.campaign import CampaignScheduler
from repro.core.engine import EnvSpec
from repro.core.simulate import SimulationEnvironment
from repro.core.transport import (
    WORKER_CRASH_EXIT,
    ChunkTask,
    TransportError,
    parse_address,
    recv_frame,
    send_frame,
)


@pytest.fixture()
def broker():
    with EmbeddedBroker(heartbeat_ttl=0.25) as running:
        yield running


@pytest.fixture()
def client(broker):
    connected = BrokerClient(broker.address)
    yield connected
    connected.close()


def chunk(token, points=1):
    """A chunk item of ``points`` points (its cost toward the DRR deficit)."""
    return {"token": token, "points": [{"token": (token, i)} for i in range(points)]}


def lease(client, worker, timeout=0.1):
    """The token of the chunk ``worker`` leases next, or ``None``."""
    item = client.call("take_any", worker=worker, timeout=timeout)["item"]
    return None if item is None else item["token"]


# ----------------------------------------------------------------------
# broker protocol units
# ----------------------------------------------------------------------
class TestBrokerProtocol:
    def test_ping_reports_protocol(self, client):
        assert client.call("ping") == {
            "type": "reply",
            "ok": True,
            "proto": BROKER_PROTOCOL,
        }

    def test_queue_is_fifo(self, client):
        client.call("announce", campaign={"id": "c"})
        for token in (1, 2, 3):
            assert client.call("put", campaign="c", item=chunk(token))["ok"]
        client.call("hello", proto=BROKER_PROTOCOL, worker="w", meta={})
        assert [lease(client, "w") for _ in range(3)] == [1, 2, 3]
        assert lease(client, "w", timeout=0.05) is None

    def test_heartbeat_ttl_expiry_requeues_leases_at_front(self, client):
        """A silent worker's leased chunk goes back to the queue head."""
        client.call("announce", campaign={"id": "c"})
        client.call("put", campaign="c", item=chunk("leased"))
        client.call("put", campaign="c", item=chunk("second"))
        hello = client.call(
            "hello", proto=BROKER_PROTOCOL, worker="silent", meta={"capacity": 1}
        )
        assert hello["ok"] and hello["ttl"] == pytest.approx(0.25)
        assert lease(client, "silent") == "leased"
        time.sleep(0.6)  # > TTL: the sweeper presumes a crash
        fleet = client.call("fleet")["fleet"]
        assert "silent" not in fleet["live"]
        assert fleet["crashes"] == {"silent": 1}
        assert fleet["requeues"] == 1
        # requeued at the *front*, ahead of the unleased chunk
        client.call("hello", proto=BROKER_PROTOCOL, worker="next", meta={})
        assert [lease(client, "next") for _ in range(2)] == ["leased", "second"]

    def test_heartbeat_refreshes_and_rearms_ttl(self, client):
        client.call("hello", proto=BROKER_PROTOCOL, worker="beater", meta={})
        for _ in range(4):
            time.sleep(0.1)  # each beat lands well inside the 0.25s TTL
            assert client.call("heartbeat", worker="beater", meta={})["ok"]
        assert "beater" in client.call("fleet")["fleet"]["live"]

    def test_any_worker_op_rearms_the_ttl(self, client):
        """Takes/pushes are proof of life: a capacity-1 worker busy with
        inline points never heartbeats between them, and must not be
        presumed crashed while it keeps pulling and pushing."""
        client.call("hello", proto=BROKER_PROTOCOL, worker="busy", meta={})
        deadline = time.time() + 0.6  # well past the 0.25s TTL
        while time.time() < deadline:
            assert client.call("take_any", worker="busy", timeout=0.0)["ok"]
            time.sleep(0.1)
        fleet = client.call("fleet")["fleet"]
        assert "busy" in fleet["live"]
        assert fleet["crashes"] == {}

    def test_reset_drops_stale_quota_refinements(self, client):
        """A re-announced campaign must not inherit its previous run's
        queued work -- but a *different* tenant's start must not wipe
        it either (the pre-multi-tenant ``reset`` cleared globally)."""

        def pending(cid):
            return client.call("campaigns")["campaigns"][cid]["tasks_pending"]

        client.call("announce", campaign={"id": "a"})
        client.call("put", campaign="a", item=chunk("stale"))
        client.call("conclude", campaign="a")
        # re-announcing campaign a starts it from a fresh record
        client.call("announce", campaign={"id": "a"})
        assert pending("a") == 0
        client.call("put", campaign="a", item=chunk("a0"))
        # a second tenant starting leaves campaign a's queued chunk alone
        client.call("announce", campaign={"id": "b"})
        assert pending("a") == 1
        # withdrawing campaign a drops its record (and the chunk) whole
        client.call("withdraw", campaign="a")
        assert "a" not in client.call("campaigns")["campaigns"]
        assert pending("b") == 0
        client.call("hello", proto=BROKER_PROTOCOL, worker="w", meta={})
        assert lease(client, "w", timeout=0.05) is None

    def test_reannouncing_a_live_campaign_id_is_rejected(self, client):
        """Two coordinators that mint the same id must not cross-wire
        queues: the second announcement is refused while the first is
        live, and accepted again once it concludes."""
        first = client.call("announce", campaign={"id": "dup"})
        assert first["ok"]
        second = client.call("announce", campaign={"id": "dup"})
        assert not second["ok"] and "already live" in second["error"]
        client.call("conclude", campaign="dup")
        again = client.call("announce", campaign={"id": "dup"})
        assert again["ok"]

    def test_take_any_interleaves_tenants_fairly(self, client):
        """Deficit round-robin: with two equal-priority tenants queued,
        a stream of ``take_any`` leases alternates between them instead
        of draining one campaign before touching the other."""
        from repro.core.broker import DRR_QUANTUM

        cost = int(DRR_QUANTUM)  # one chunk spends a full visit's deficit
        for cid in ("a", "b"):
            client.call("announce", campaign={"id": cid})
            for token in range(4):
                client.call("put", campaign=cid, item=chunk(f"{cid}{token}", cost))
        client.call("hello", proto=BROKER_PROTOCOL, worker="w", meta={})
        origins = []
        for _ in range(8):
            reply = client.call("take_any", worker="w", timeout=0.1)
            assert reply["ok"] and reply["item"] is not None
            origins.append(reply["campaign"])
        assert sorted(origins) == ["a"] * 4 + ["b"] * 4
        # both tenants appear in the first half: neither waits for the
        # other to drain
        assert {"a", "b"} <= set(origins[:4])
        assert client.call("take_any", worker="w", timeout=0.05)["item"] is None

    def test_take_any_weights_by_priority(self, client):
        """A priority-2 tenant is offered about twice the work of a
        priority-1 one while both have tasks queued."""
        from repro.core.broker import DRR_QUANTUM

        cost = int(DRR_QUANTUM)
        client.call("announce", campaign={"id": "hi", "priority": 2.0})
        client.call("announce", campaign={"id": "lo", "priority": 1.0})
        for cid in ("hi", "lo"):
            for token in range(12):
                client.call("put", campaign=cid, item=chunk(f"{cid}{token}", cost))
        client.call("hello", proto=BROKER_PROTOCOL, worker="w", meta={})
        origins = []
        for _ in range(12):
            reply = client.call("take_any", worker="w", timeout=0.1)
            assert reply["item"] is not None
            origins.append(reply["campaign"])
        # the leases split roughly 2:1 in favour of the hi tenant
        assert origins.count("hi") >= 7
        assert origins.count("lo") >= 2

    def test_campaign_ids_are_host_and_pid_scoped(self):
        """Minted ids embed hostname, pid and a random tail, so two
        coordinators with the same pid on different hosts cannot
        collide."""
        import os
        import re
        import socket as socketlib

        from repro.core.broker import _mint_campaign_id

        minted = {_mint_campaign_id() for _ in range(32)}
        assert len(minted) == 32
        prefix = re.escape(f"c{socketlib.gethostname()}-{os.getpid()}-")
        for cid in minted:
            assert re.fullmatch(prefix + r"\d+-[0-9a-f]{6}", cid)

    def test_duplicate_result_rejected_by_token(self, client):
        client.call("announce", campaign={"id": "c"})
        first = client.call(
            "push_result", campaign="c", token=7, payload={"x": 1}, worker="w"
        )
        dup = client.call(
            "push_result", campaign="c", token=7, payload={"x": 1}, worker="w"
        )
        assert first["dup"] is False
        assert dup["dup"] is True
        taken = client.call("take", campaign="c", ack=[], max=8, timeout=0.1)
        assert [item["token"] for item in taken["items"]] == [7]
        again = client.call("take", campaign="c", ack=[7], max=8, timeout=0.05)
        assert again["items"] == []
        assert client.call("fleet")["fleet"]["dup_results"] == 1

    def test_quarantined_worker_is_rejected_everywhere(self, broker, client):
        # two expiries push the id over the default quarantine threshold
        for _ in range(2):
            client.call("hello", proto=BROKER_PROTOCOL, worker="repeat", meta={})
            time.sleep(0.6)
        fleet = client.call("fleet")["fleet"]
        assert "repeat" in fleet["quarantined"]
        for op, fields in (
            ("hello", {"proto": BROKER_PROTOCOL, "meta": {}}),
            ("heartbeat", {"meta": {}}),
            ("take_any", {"timeout": 0.05}),
        ):
            reply = client.call(op, worker="repeat", **fields)
            assert not reply["ok"] and reply.get("quarantined"), op

    def test_protocol_mismatch_rejected(self, client):
        hello = client.call("hello", proto=99, worker="future", meta={})
        assert not hello["ok"] and "protocol" in hello["error"]
        # older workers are refused at hello, not mis-served: a version-2
        # worker cannot run lane-run entries, and a version-3 one would
        # push results under queue names instead of campaign ids
        for proto in (1, 2, 3):
            hello = client.call("hello", proto=proto, worker=f"v{proto}", meta={})
            assert not hello["ok"] and "protocol" in hello["error"]

    def test_unknown_op_rejected(self, client):
        reply = client.call("flush_everything")
        assert not reply["ok"] and "unknown op" in reply["error"]

    def test_put_and_take_on_an_unknown_campaign_are_refused(self, client):
        """Only an announced campaign has a record to file work under; a
        put or take naming any other id (or none) creates nothing."""
        client.call("announce", campaign={"id": "known"})
        for fields in ({"campaign": "other"}, {"queue": "tasks:known"}):
            put = client.call("put", item=chunk(0), **fields)
            assert not put["ok"] and "unknown campaign" in put["error"]
            take = client.call("take", ack=[], max=1, timeout=0.0, **fields)
            assert not take["ok"] and "unknown campaign" in take["error"]
        status = client.call("status")["status"]
        assert list(status["campaigns"]) == ["known"]
        assert status["fleet"]["pending"] == {}

    @pytest.mark.parametrize(
        "item",
        [
            {"token": 0},
            {"token": 0, "points": []},
            {"token": 0, "points": [{"app": "x"}]},
            {"points": [{"token": 0}]},
        ],
        ids=["flat", "empty", "point-without-token", "chunk-without-token"],
    )
    def test_put_accepts_chunks_only(self, client, item):
        client.call("announce", campaign={"id": "c"})
        reply = client.call("put", campaign="c", item=item)
        assert not reply["ok"] and "chunk" in reply["error"]
        assert client.call("campaigns")["campaigns"]["c"]["tasks_pending"] == 0

    def test_take_any_needs_a_hello_and_leases_nothing_without_one(self, client):
        """A worker that never said hello is not in the registry, so a
        lease it took could never be requeued when it dies: the take is
        refused and the chunk stays queued."""
        client.call("announce", campaign={"id": "c"})
        client.call("put", campaign="c", item=chunk("c0"))
        reply = client.call("take_any", worker="stranger", timeout=0.05)
        assert not reply["ok"] and "hello" in reply["error"]
        status = client.call("status")["status"]
        assert status["leases"] == {}
        assert status["campaigns"]["c"]["tasks_pending"] == 1
        client.call("hello", proto=BROKER_PROTOCOL, worker="stranger", meta={})
        assert lease(client, "stranger") == "c0"

    def test_same_numbered_chunks_of_two_campaigns_both_requeue(self, client):
        """Campaigns number their chunks independently, so one worker may
        lease chunk 0 of two campaigns at once; when it dies, both go
        back to their own campaign's queue."""
        for cid in ("a", "b"):
            client.call("announce", campaign={"id": cid})
            client.call("put", campaign=cid, item=chunk(0, points=2))
        client.call("hello", proto=BROKER_PROTOCOL, worker="w", meta={})
        assert [lease(client, "w"), lease(client, "w")] == [0, 0]
        status = client.call("status")["status"]
        assert status["leases"]["w"]["count"] == 2
        assert {cid: c["leased_points"] for cid, c in status["campaigns"].items()} == {
            "a": 2,
            "b": 2,
        }
        time.sleep(0.6)  # > TTL: the sweeper presumes a crash
        fleet = client.call("fleet")["fleet"]
        assert fleet["requeues"] == 4
        assert fleet["pending"] == {"a": 1, "b": 1}

    def test_goodbye_is_not_a_crash(self, client):
        client.call("hello", proto=BROKER_PROTOCOL, worker="leaver", meta={})
        assert client.call("goodbye", worker="leaver")["ok"]
        fleet = client.call("fleet")["fleet"]
        assert "leaver" not in fleet["live"]
        assert fleet["crashes"] == {}

    def test_validation(self):
        with pytest.raises(ValueError, match="heartbeat_ttl"):
            EmbeddedBroker(heartbeat_ttl=0.0)
        with pytest.raises(ValueError, match="quarantine_after"):
            EmbeddedBroker(quarantine_after=0)

    @pytest.mark.parametrize("max_outage_s", [0.0, 0.5])
    def test_silent_listener_cannot_hang_a_call(self, monkeypatch, max_outage_s):
        """A listener that accepts but never replies trips the reply
        deadline; the call raises, after the outage budget if any."""
        monkeypatch.setattr(broker_module, "REPLY_TIMEOUT_S", 0.1)
        raised = []

        def call(client):
            try:
                client.call("ping")
            except BrokerUnavailableError as exc:
                raised.append(exc)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = BrokerClient(
                listener.getsockname(), retry_s=0.0, max_outage_s=max_outage_s
            )
            accepted, _ = listener.accept()
            thread = threading.Thread(target=call, args=(client,), daemon=True)
            thread.start()
            thread.join(timeout=10.0)
            accepted.close()
            client.close()
        assert not thread.is_alive()
        assert len(raised) == 1


# ----------------------------------------------------------------------
# queue transport lifecycle
# ----------------------------------------------------------------------
class TestQueueTransportLifecycle:
    def test_address_is_concrete_before_start(self):
        transport = QueueTransport()
        host, port = parse_address(transport.address)
        assert host == "127.0.0.1" and port > 0
        transport.close()

    def test_submit_before_start_rejected(self):
        transport = QueueTransport()
        try:
            with pytest.raises(TransportError, match="not started"):
                transport.submit_chunk(
                    0, ChunkTask.of([(0, (UrlApp, "Whittemore", {}, {}))])
                )
        finally:
            transport.close()

    def test_close_idempotent_and_submit_after_close_rejected(self):
        transport = QueueTransport()
        transport.close()
        transport.close()
        with pytest.raises(TransportError, match="closed"):
            transport.submit_chunk(
                0, ChunkTask.of([(0, (UrlApp, "Whittemore", {}, {}))])
            )

    def test_start_refuses_a_broker_of_another_protocol(self):
        """The coordinator pings before it announces: a broker that
        answers with another protocol is refused, and nothing else is
        sent to it (a version-3 broker would file every put under a
        queue literally named "None")."""
        ops = []

        def answer(listener):
            conn, _ = listener.accept()
            with conn:
                while (message := recv_frame(conn)) is not None:
                    ops.append(message.get("op"))
                    reply = {"type": "reply", "ok": True, "proto": BROKER_PROTOCOL - 1}
                    send_frame(conn, reply)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            thread = threading.Thread(target=answer, args=(listener,), daemon=True)
            thread.start()
            host, port = listener.getsockname()[:2]
            transport = QueueTransport(f"{host}:{port}", max_outage_s=0.0)
            try:
                with pytest.raises(TransportError, match="protocol"):
                    transport.start(EnvSpec.from_env(SimulationEnvironment()))
            finally:
                transport.close()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert ops == ["ping"]

    def test_no_workers_times_out(self):
        transport = QueueTransport(worker_timeout=0.5)
        try:
            transport.start(EnvSpec.from_env(SimulationEnvironment()))
            transport.submit_chunk(
                0,
                ChunkTask.of([(0, (UrlApp, "Whittemore", {},
                                   {"url_pattern": "AR", "connection": "SLL"}))]),
            )
            with pytest.raises(TransportError, match="no workers"):
                transport.next_results()
        finally:
            transport.close()

    def test_outage_recovery_is_not_misread_as_starvation(self):
        """Regression: a ridden-out broker outage used to leave the
        wall-clock starvation timer running, so the first empty-fleet
        poll after recovery could fail the campaign instantly, blaming
        the fleet for the broker's downtime.  The clock arms on the
        first starved *observation* and a reconnect disarms it."""
        transport = QueueTransport(worker_timeout=0.3)
        try:
            transport.start(EnvSpec.from_env(SimulationEnvironment()))
            empty_fleet = {"live": {}}
            transport._check_starvation(empty_fleet)  # arms only
            time.sleep(0.4)  # starved past worker_timeout...
            transport._broker_reconnected(transport._client)  # ...but recovered
            transport._check_starvation(empty_fleet)  # re-arms, no raise
            time.sleep(0.4)  # continuously starved after recovery
            with pytest.raises(TransportError, match="no workers"):
                transport._check_starvation(empty_fleet)
        finally:
            transport.close()

    def test_next_result_without_work_rejected(self):
        transport = QueueTransport()
        try:
            transport.start(EnvSpec.from_env(SimulationEnvironment()))
            with pytest.raises(TransportError, match="no outstanding"):
                transport.next_results()
        finally:
            transport.close()

    def test_close_withdraws_campaign_announcement(self):
        """On a shared broker, a worker launched between campaigns must
        find no stale announcement (it would count the old campaign as
        still registered and exit against a 'done' backlog instead of
        awaiting the next tenant)."""
        with EmbeddedBroker() as shared:
            transport = QueueTransport(shared)
            transport.start(EnvSpec.from_env(SimulationEnvironment()))
            client = BrokerClient(shared.address)
            try:
                reply = client.call("campaigns")
                assert reply["running"] == 1
                (announced,) = reply["campaigns"].values()
                assert announced["state"] == "running"
                transport.close()
                reply = client.call("campaigns")
                assert reply["campaigns"] == {} and reply["running"] == 0
            finally:
                client.close()

    def test_worker_waiting_for_first_campaign_stays_registered(self):
        """Regression: a worker launched before any campaign polled an
        op that never re-armed its TTL, so waiting out the TTL counted
        as a crash, and its first lease after the wait went unrecorded
        -- a crash then lost the leased points.  A waiting worker stays
        live, and a crash on its first lease requeues that lease."""
        with EmbeddedBroker(heartbeat_ttl=0.8) as broker:
            client = BrokerClient(broker.address)
            worker = spawn_worker(broker.address, "early", "--fail-after", "1")
            try:
                deadline = time.monotonic() + 30
                while "early" not in client.call("fleet")["fleet"]["live"]:
                    assert time.monotonic() < deadline, "worker never registered"
                    time.sleep(0.05)
                time.sleep(2.0)  # well past the TTL, still no campaign
                fleet = client.call("fleet")["fleet"]
                assert "early" in fleet["live"]
                assert fleet["crashes"] == {}

                spec = EnvSpec.from_env(SimulationEnvironment())
                client.call("announce", campaign={"id": "c", "spec": spec})
                point = {
                    "token": "p0",
                    "app": UrlApp,
                    "trace": "Whittemore",
                    "params": {},
                    "assignment": {"url_pattern": "AR", "connection": "SLL"},
                }
                item = {"token": "c0", "points": [point]}
                client.call("put", campaign="c", item=item)
                assert worker.wait(timeout=30) == WORKER_CRASH_EXIT
                deadline = time.monotonic() + 10
                while client.call("fleet")["fleet"]["requeues"] < 1:
                    assert time.monotonic() < deadline, "the lease was lost"
                    time.sleep(0.05)
                client.call("hello", proto=BROKER_PROTOCOL, worker="next", meta={})
                requeued = client.call("take_any", worker="next", timeout=1.0)["item"]
                assert [p["token"] for p in requeued["points"]] == ["p0"]
            finally:
                client.close()
                if worker.poll() is None:
                    worker.kill()
                    worker.wait(timeout=10)


# ----------------------------------------------------------------------
# elastic fleet: join and leave mid-campaign, content parity throughout
# ----------------------------------------------------------------------
class TestElasticFleet:
    def test_join_and_leave_mid_campaign_keep_content_parity(
        self, serial_campaign, tmp_path
    ):
        """The founding worker is killed mid-campaign; a replacement
        joins afterwards and finishes the sweep.  The coordinator sees
        nothing but throughput -- results match serial on content keys.
        """
        transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
        early = spawn_worker(transport.address, "early")
        late_box = []
        mid_campaign = threading.Event()
        done_points = [0]

        def progress(phase, done, total, detail):
            done_points[0] += 1
            if done_points[0] >= 8:
                mid_campaign.set()

        def choreography():
            # provably mid-campaign: >= 8 points resolved, many remain
            if not mid_campaign.wait(120):
                return
            early.kill()  # leaves without a goodbye
            late_box.append(spawn_worker(transport.address, "late"))

        stagehand = threading.Thread(target=choreography, daemon=True)
        stagehand.start()
        try:
            wait_live(transport.address, "early")
            with CampaignScheduler(
                candidates=CANDIDATES,
                configs=NARROW,
                trace_store=tmp_path / "traces",
                transport=transport,
                progress=progress,
            ) as campaign:
                result = campaign.run()
            stagehand.join(timeout=60)
            assert late_box and late_box[0].wait(timeout=30) == 0
        finally:
            for proc in [early, *late_box]:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        assert_matches(result, serial_campaign)
        # workers hydrated traces from the shared store: the coordinator
        # generated each needed trace exactly once
        needed = {c.trace_name for configs in NARROW.values() for c in configs}
        assert result.trace_counters["generations"] == len(needed)
        assert {"early", "late"} <= transport.workers_seen
        # the kill was noticed as exactly one crash, below quarantine
        assert transport.crashes.get("early") == 1
        assert result.quarantined == []


# ----------------------------------------------------------------------
# fault injection through the shared drills
# ----------------------------------------------------------------------
class TestQueueFaultInjection:
    def test_crashed_workers_points_are_requeued(self):
        transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
        crash_requeue_drill(transport)

    def test_twice_crashing_worker_is_quarantined(self):
        transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
        quarantine_drill(transport)


# ----------------------------------------------------------------------
# one record store: crash and rejoin, then rerun from the coordinator cache
# ----------------------------------------------------------------------
class TestWarmRejoin:
    def test_rejoin_costs_no_extra_runs_and_rerun_is_all_cache_hits(
        self, serial_campaign, tmp_path
    ):
        """The rejoin fault drill on the coordinator cache: campaign 1
        injects a hard crash mid-campaign and respawns the same worker
        id, and still simulates exactly a clean serial run's cover runs;
        campaign 2 reruns the sweep on the same cache with no worker and
        answers every point from it.  Both match serial on
        ``content_key()``."""
        cache_rejoin_drill(
            serial_campaign,
            cache_dir=tmp_path / "cache",
            trace_store=tmp_path / "traces",
        )


# ----------------------------------------------------------------------
# durable broker: kill -9 mid-campaign, restart on the same journal
# ----------------------------------------------------------------------
class TestBrokerRestart:
    def test_campaign_survives_broker_kill_and_journal_restart(
        self, serial_campaign, tmp_path
    ):
        """The broker-restart fault drill: a standalone journaled broker
        is SIGKILLed provably mid-campaign and a successor started on
        the same address + journal directory.  The successor replays
        the write-ahead log, the coordinator and both workers reconnect
        transparently, and the campaign finishes with results
        bit-identical to serial -- no duplicates, no one quarantined,
        no worker blamed for the broker's death, and both workers on
        the result's per-worker records."""
        broker_restart_drill(
            serial_campaign,
            journal_dir=tmp_path / "journal",
            trace_store=tmp_path / "traces",
            cache=tmp_path / "cache",
        )


# ----------------------------------------------------------------------
# multi-tenant broker: two concurrent campaigns, one shared fleet
# ----------------------------------------------------------------------
class TestConcurrentCampaigns:
    def test_two_campaigns_share_one_broker_and_fleet(self, tmp_path):
        """The concurrent-campaign fault drill: two campaigns (URL at
        priority 2, DRR at priority 1) run against one standing
        journaled broker with two shared workers leasing from whichever
        tenant deficit round-robin picks.  The broker is SIGKILLed
        provably mid-flight with both campaigns registered in the
        write-ahead log and a successor resumes both.  Each campaign
        finishes bit-identical to serial, each made progress while the
        other was active, nobody is quarantined, and every simulated
        point was received exactly once."""
        url_result, drr_result, metrics = concurrent_campaign_drill(
            journal_dir=tmp_path / "journal",
            trace_store_a=tmp_path / "traces-url",
            trace_store_b=tmp_path / "traces-drr",
        )
        assert url_result.stats.simulations > 0
        assert drr_result.stats.simulations > 0
        assert metrics["switches"] >= 2


# ----------------------------------------------------------------------
# bounded shutdown
# ----------------------------------------------------------------------
class TestBoundedShutdown:
    @pytest.mark.parametrize("journaled", [False, True])
    def test_start_to_close_is_bounded(self, tmp_path, journaled):
        """close() wakes the accept and sweep threads instead of waiting
        out a join timeout or a sweep interval."""
        started = time.monotonic()
        broker = EmbeddedBroker(
            journal=str(tmp_path / "journal") if journaled else None
        )
        broker.start()
        broker.close()
        assert time.monotonic() - started < 0.5
        assert not any(thread.is_alive() for thread in broker._threads)

    def test_take_any_returns_when_the_running_count_moves(self):
        """Regression: a worker's ``take_any`` sat out its whole timeout
        after the last campaign concluded, and so did one sent just
        after, so every worker exit waited on it.  A take whose
        last-seen running count is stale returns at once; a blocked one
        returns when a conclude changes the count."""
        with EmbeddedBroker() as broker:
            client = BrokerClient(broker.address)
            try:
                client.call("hello", proto=BROKER_PROTOCOL, worker="w", meta={})
                started = time.monotonic()
                reply = client.call("take_any", worker="w", timeout=5.0, running=1)
                assert reply["item"] is None and reply["running"] == 0
                assert time.monotonic() - started < 1.0

                client.call("announce", campaign={"id": "c"})
                returned = {}

                def take() -> None:
                    waiter = BrokerClient(broker.address)
                    try:
                        returned["reply"] = waiter.call(
                            "take_any", worker="w", timeout=5.0, running=1
                        )
                        returned["at"] = time.monotonic()
                    finally:
                        waiter.close()

                thread = threading.Thread(target=take)
                thread.start()
                time.sleep(0.3)  # let the take block in the broker
                concluded = time.monotonic()
                client.call("conclude", campaign="c")
                thread.join(timeout=10)
                assert not thread.is_alive()
                assert returned["reply"]["item"] is None
                assert returned["reply"]["running"] == 0
                assert returned["at"] - concluded < 1.0
            finally:
                client.close()


# ----------------------------------------------------------------------
# capacity-weighted dispatch and its per-run fleet records
# ----------------------------------------------------------------------
class TestCapacityWeightedDispatch:
    def test_fleet_records_reach_result_and_manifest(
        self, serial_campaign, tmp_path
    ):
        """Unequal advertised capacities are measured and reported on
        the result; the manifest keeps only what ``--resume`` diffs.

        The sweep is the baseline's four-app narrow campaign: its four
        step-1 lane runs are queued at once, one more than the big
        worker's three slots hold, so each worker simulates some."""
        cache_dir = tmp_path / "cache"
        transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
        workers = [
            spawn_worker(transport.address, "small", capacity=1),
            spawn_worker(transport.address, "big", capacity=3),
        ]
        try:
            wait_live(transport.address, "small", "big")
            with CampaignScheduler(
                candidates=CANDIDATES,
                configs=NARROW,
                cache=cache_dir,
                transport=transport,
            ) as campaign:
                result = campaign.run()
            assert [proc.wait(timeout=30) for proc in workers] == [0, 0]
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
        assert_matches(result, serial_campaign)

        stats = result.worker_stats
        assert set(stats) == {"small", "big"}
        assert stats["small"]["capacity"] == 1
        assert stats["big"]["capacity"] == 3
        assert all(ws["points"] >= 1 for ws in stats.values())
        assert (
            sum(ws["points"] for ws in stats.values())
            == result.stats.simulations
        )

        manifest = json.loads(
            (cache_dir / "campaign-manifest.json").read_text()
        )
        assert set(manifest) == {"version", "apps"}
