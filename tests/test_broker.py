"""Tests of the embedded campaign broker and the queue transport.

The broker decouples worker lifetime from the coordinator: workers pull
tasks and push results through Redis-like queues, heartbeat with a TTL,
and may join, leave and rejoin mid-campaign.  None of that may show in
the results -- every drill gates on ``SimulationRecord.content_key()``
parity with the serial baseline (drills in ``tests/support/faults.py``).

The broker's rules are tested on its state machine,
:class:`~repro.core.brokerstate.BrokerState`, with time passed in as
data: a TTL, a quarantine or a fair-scheduling rotation is a made-up
``now``, with no socket, thread or sleep.  The socket shell keeps one
test per behaviour of its own (frames, a dropped connection fails its
worker, a waiting op wakes on a notify, malformed frames).
"""

import json
import pickle
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
    print_logs,
    quarantine_drill,
    spawn_worker,
    wait_live,
)

from repro.apps import UrlApp
from repro.core import broker as broker_module
from repro.core.broker import (
    BROKER_PROTOCOL,
    DRR_QUANTUM,
    BrokerClient,
    BrokerUnavailableError,
    EmbeddedBroker,
    QueueTransport,
)
from repro.core.brokerstate import BrokerState
from repro.core.campaign import CampaignScheduler
from repro.core.engine import EnvSpec, ExplorationEngine
from repro.core.simulate import SimulationEnvironment
from repro.core.transport import (
    WORKER_CRASH_EXIT,
    WORKER_REJECTED_EXIT,
    ChunkTask,
    LaneRun,
    TransportError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.net.config import NetworkConfig


#: One URL lane run on the smallest trace.
URL_RUN = LaneRun(
    UrlApp, "Whittemore", {}, {"url_pattern": ("AR",), "connection": ("SLL",)}
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


@pytest.fixture()
def state():
    """A broker state machine with a 0.25 s TTL, at ``now`` = 0."""
    return BrokerState(heartbeat_ttl=0.25)


def call(state, op, now=0.0, conn=None, **fields):
    """Send one ``op`` frame to the state machine at time ``now``; the op
    must answer (not wait)."""
    reply = state.handle({"type": "cmd", "op": op, **fields}, conn, now)
    assert reply is not None, f"{op} would wait"
    return reply


def hello(state, worker, now=0.0, conn=None, **meta):
    assert call(
        state, "hello", now, conn, proto=BROKER_PROTOCOL, worker=worker, meta=meta
    )["ok"]


def put(state, campaign, *tokens):
    """Queue one lane run per token on ``campaign`` (one ``put``)."""
    return call(state, "put", campaign=campaign, runs=[{"token": t} for t in tokens])


def lease(state, worker, now=0.0):
    """The token of the lane run ``worker`` leases next, or ``None``."""
    item = call(state, "take_any", now, worker=worker)["item"]
    return None if item is None else item["token"]


def fleet(state):
    return call(state, "fleet")["fleet"]


# ----------------------------------------------------------------------
# broker protocol units, on the state machine
# ----------------------------------------------------------------------
class TestBrokerProtocol:
    def test_ping_reports_protocol(self, client):
        assert client.call("ping") == {
            "type": "reply",
            "ok": True,
            "proto": BROKER_PROTOCOL,
        }

    def test_queue_is_fifo(self, state):
        call(state, "announce", campaign={"id": "c"})
        assert put(state, "c", 1, 2)["ok"]
        assert put(state, "c", 3)["ok"]
        hello(state, "w")
        assert [lease(state, "w") for _ in range(3)] == [1, 2, 3]
        assert lease(state, "w") is None

    def test_heartbeat_ttl_expiry_requeues_leases_at_front(self, state):
        """A silent worker's leased run goes back to the queue head."""
        call(state, "announce", campaign={"id": "c"})
        put(state, "c", "leased", "second")
        reply = call(
            state, "hello", proto=BROKER_PROTOCOL, worker="silent", meta={"capacity": 1}
        )
        assert reply["ok"] and reply["ttl"] == pytest.approx(0.25)
        assert lease(state, "silent") == "leased"
        state.expire(0.6)  # > TTL: presumed crashed
        after = fleet(state)
        assert "silent" not in after["live"]
        assert after["crashes"] == {"silent": 1}
        assert after["requeues"] == 1
        # requeued at the *front*, ahead of the unleased run
        hello(state, "next", 0.6)
        assert [lease(state, "next", 0.6) for _ in range(2)] == ["leased", "second"]

    def test_heartbeat_refreshes_and_rearms_ttl(self, state):
        hello(state, "beater")
        for now in (0.1, 0.2, 0.3, 0.4):  # each beat well inside the TTL
            state.expire(now)
            assert call(state, "heartbeat", now, worker="beater", meta={})["ok"]
        state.expire(0.5)
        assert "beater" in fleet(state)["live"]
        state.expire(0.66)  # 0.25 s after the last beat
        assert "beater" not in fleet(state)["live"]

    def test_any_worker_op_rearms_the_ttl(self, state):
        """Takes/pushes are proof of life: a capacity-1 worker busy with
        inline points never heartbeats between them, and must not be
        presumed crashed while it keeps pulling and pushing."""
        hello(state, "busy")
        # one op every 0.2 s, well past the 0.25 s TTL in all
        for step in range(1, 7):
            now = 0.2 * step
            state.expire(now)
            if step % 2:
                assert call(state, "take_any", now, worker="busy")["ok"]
            else:
                push = {"campaign": "c", "token": step, "payload": {}, "worker": "busy"}
                assert call(state, "push_result", now, **push)["ok"]
        after = fleet(state)
        assert "busy" in after["live"]
        assert after["crashes"] == {}

    def test_reset_drops_stale_quota_refinements(self, state):
        """A re-announced campaign must not inherit its previous run's
        queued work -- but a *different* tenant's start must not wipe
        it either (the pre-multi-tenant ``reset`` cleared globally)."""

        def pending(cid):
            return call(state, "campaigns")["campaigns"][cid]["tasks_pending"]

        call(state, "announce", campaign={"id": "a"})
        put(state, "a", "stale")
        call(state, "conclude", campaign="a")
        # re-announcing campaign a starts it from a fresh record
        call(state, "announce", campaign={"id": "a"})
        assert pending("a") == 0
        put(state, "a", "a0")
        # a second tenant starting leaves campaign a's queued run alone
        call(state, "announce", campaign={"id": "b"})
        assert pending("a") == 1
        # withdrawing campaign a drops its record (and the run) whole
        call(state, "withdraw", campaign="a")
        assert "a" not in call(state, "campaigns")["campaigns"]
        assert pending("b") == 0
        hello(state, "w")
        assert lease(state, "w") is None

    def test_reannouncing_a_live_campaign_id_is_rejected(self, state):
        """Two coordinators that mint the same id must not cross-wire
        queues: the second announcement is refused while the first is
        live, and accepted again once it concludes."""
        assert call(state, "announce", campaign={"id": "dup"})["ok"]
        second = call(state, "announce", campaign={"id": "dup"})
        assert not second["ok"] and "already live" in second["error"]
        call(state, "conclude", campaign="dup")
        assert call(state, "announce", campaign={"id": "dup"})["ok"]

    def test_take_any_interleaves_tenants_fairly(self, state):
        """Deficit round-robin: with two equal-priority tenants queued,
        a stream of ``take_any`` leases alternates between them, one
        quantum of lane runs at a time, instead of draining one campaign
        before touching the other."""
        quantum = int(DRR_QUANTUM)  # runs one visit's deficit pays for
        for cid in ("a", "b"):
            call(state, "announce", campaign={"id": cid})
            put(state, cid, *(f"{cid}{token}" for token in range(2 * quantum)))
        hello(state, "w")
        origins = []
        for _ in range(4 * quantum):
            reply = call(state, "take_any", worker="w")
            assert reply["ok"] and reply["item"] is not None
            origins.append(reply["campaign"])
        # neither tenant waits for the other to drain
        assert origins == (["a"] * quantum + ["b"] * quantum) * 2
        assert lease(state, "w") is None

    def test_take_any_weights_by_priority(self, state):
        """A priority-2 tenant is offered twice the work of a priority-1
        one while both have tasks queued."""
        quantum = int(DRR_QUANTUM)
        call(state, "announce", campaign={"id": "hi", "priority": 2.0})
        call(state, "announce", campaign={"id": "lo", "priority": 1.0})
        for cid in ("hi", "lo"):
            put(state, cid, *(f"{cid}{token}" for token in range(6 * quantum)))
        hello(state, "w")
        origins = []
        for _ in range(6 * quantum):  # two rotations of 2 + 1 quanta
            reply = call(state, "take_any", worker="w")
            assert reply["item"] is not None
            origins.append(reply["campaign"])
        # the leases split 2:1 in favour of the hi tenant
        assert origins.count("hi") == 2 * origins.count("lo") == 4 * quantum

    @pytest.mark.parametrize("priority", [-1.0, float("nan"), float("inf")])
    def test_announce_refuses_a_priority_drr_cannot_bank(self, state, priority):
        """Deficit round-robin banks ``DRR_QUANTUM * priority`` per visit
        until a campaign affords a run; a priority that is not a positive
        finite number would never get there (or never stop), so it is
        refused and nothing is registered."""
        reply = call(state, "announce", campaign={"id": "c", "priority": priority})
        assert not reply["ok"] and "priority" in reply["error"]
        assert call(state, "campaigns")["campaigns"] == {}
        with pytest.raises(ValueError, match="priority"):
            QueueTransport(priority=priority)

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

    def test_duplicate_result_rejected_by_token(self, state):
        call(state, "announce", campaign={"id": "c"})
        push = {"campaign": "c", "token": 7, "payload": {"x": 1}, "worker": "w"}
        assert call(state, "push_result", **push)["dup"] is False
        assert call(state, "push_result", **push)["dup"] is True
        taken = call(state, "take", campaign="c", ack=[], max=8)
        assert [item["token"] for item in taken["items"]] == [7]
        assert call(state, "take", campaign="c", ack=[7], max=8)["items"] == []
        assert fleet(state)["dup_results"] == 1

    def test_quarantined_worker_is_rejected_everywhere(self, state):
        # two expiries push the id over the default quarantine threshold
        for now in (0.0, 1.0):
            hello(state, "repeat", now)
            state.expire(now + 0.6)
        assert "repeat" in fleet(state)["quarantined"]
        for op, fields in (
            ("hello", {"proto": BROKER_PROTOCOL, "meta": {}}),
            ("heartbeat", {"meta": {}}),
            ("take_any", {"timeout": 0.05}),
        ):
            reply = call(state, op, 2.0, worker="repeat", **fields)
            assert not reply["ok"] and reply.get("quarantined"), op

    def test_protocol_mismatch_rejected(self, state):
        reply = call(state, "hello", proto=99, worker="future", meta={})
        assert not reply["ok"] and "protocol" in reply["error"]
        # older workers are refused at hello, not mis-served: a version-2
        # worker cannot run lane-run entries, a version-3 one would push
        # results under queue names instead of campaign ids, and a
        # version-4 one would read a single lane run as a chunk
        for proto in (1, 2, 3, 4):
            reply = call(state, "hello", proto=proto, worker=f"v{proto}", meta={})
            assert not reply["ok"] and "protocol" in reply["error"]

    def test_unknown_op_rejected(self, state):
        reply = call(state, "flush_everything")
        assert not reply["ok"] and "unknown op" in reply["error"]

    def test_put_and_take_on_an_unknown_campaign_are_refused(self, state):
        """Only an announced campaign has a record to file work under; a
        put or take naming any other id (or none) creates nothing."""
        call(state, "announce", campaign={"id": "known"})
        for fields in ({"campaign": "other"}, {"queue": "tasks:known"}):
            refused = call(state, "put", runs=[{"token": 0}], **fields)
            assert not refused["ok"] and "unknown campaign" in refused["error"]
            take = call(state, "take", ack=[], max=1, timeout=0.0, **fields)
            assert not take["ok"] and "unknown campaign" in take["error"]
        status = call(state, "status")["status"]
        assert list(status["campaigns"]) == ["known"]
        assert status["fleet"]["pending"] == {}

    @pytest.mark.parametrize(
        "fields",
        [
            {"runs": {"token": 0}},
            {"runs": []},
            {"runs": [{"token": 0}, {"app": "x"}]},
            {"item": {"points": [{"token": 0}]}},
        ],
        ids=["flat", "empty", "point-without-token", "chunk-without-token"],
    )
    def test_put_accepts_chunks_only(self, state, fields):
        """A put carries one node's lane runs as a non-empty ``runs``
        list, every run with a token; a lone run, an empty list, a
        tokenless run or a version-4 chunk item is refused whole."""
        call(state, "announce", campaign={"id": "c"})
        reply = call(state, "put", campaign="c", **fields)
        assert not reply["ok"] and "runs" in reply["error"]
        assert call(state, "campaigns")["campaigns"]["c"]["tasks_pending"] == 0

    def test_take_any_needs_a_hello_and_leases_nothing_without_one(self, state):
        """A worker that never said hello is not in the registry, so a
        lease it took could never be requeued when it dies: the take is
        refused and the run stays queued."""
        call(state, "announce", campaign={"id": "c"})
        put(state, "c", "c0")
        reply = call(state, "take_any", worker="stranger", timeout=0.05)
        assert not reply["ok"] and "hello" in reply["error"]
        status = call(state, "status")["status"]
        assert status["leases"] == {}
        assert status["campaigns"]["c"]["tasks_pending"] == 1
        hello(state, "stranger")
        assert lease(state, "stranger") == "c0"

    def test_same_numbered_chunks_of_two_campaigns_both_requeue(self, state):
        """Campaigns number their lane runs independently, so one worker
        may lease run 0 of two campaigns at once; when it dies, both go
        back to their own campaign's queue."""
        for cid in ("a", "b"):
            call(state, "announce", campaign={"id": cid})
            put(state, cid, 0, 1)
        hello(state, "w")
        assert [lease(state, "w") for _ in range(4)] == [0, 1, 0, 1]
        status = call(state, "status", 0.1)["status"]
        assert status["leases"]["w"] == {"count": 4, "oldest_age_s": 0.1}
        assert {cid: c["leased_points"] for cid, c in status["campaigns"].items()} == {
            "a": 2,
            "b": 2,
        }
        state.expire(0.6)  # > TTL: presumed crashed
        after = fleet(state)
        assert after["requeues"] == 4
        assert after["pending"] == {"a": 2, "b": 2}

    def test_new_process_under_a_live_id_requeues_its_predecessors_leases(self):
        """A respawned worker may say hello before the broker has read its
        predecessor's end of connection.  A hello with another pid ends
        the previous incarnation there and then: its lease is requeued at
        the front and its crash counted, once."""
        state = BrokerState(heartbeat_ttl=30.0)
        first, second = object(), object()
        call(state, "announce", campaign={"id": "c"})
        put(state, "c", "a", "b")
        hello(state, "w", conn=first, pid=1)
        assert lease(state, "w") == "a"
        hello(state, "w", conn=second, pid=2)
        after = fleet(state)
        assert after["crashes"] == {"w": 1}
        assert after["requeues"] == 1
        assert [lease(state, "w") for _ in range(2)] == ["a", "b"]
        state.connection_lost(first)  # the predecessor's end counts nothing
        status = call(state, "status")["status"]
        assert status["fleet"]["crashes"] == {"w": 1}
        assert status["leases"]["w"]["count"] == 2
        assert status["fleet"]["pending"] == {}

    def test_same_process_rehello_keeps_its_leases(self):
        """A worker re-registering after a reconnect sends its own pid
        again: its lease stays and no crash is counted, also when the
        old connection ends afterwards."""
        state = BrokerState(heartbeat_ttl=30.0)
        first, second = object(), object()
        call(state, "announce", campaign={"id": "c"})
        put(state, "c", "a", "b")
        hello(state, "w", conn=first, pid=1)
        assert lease(state, "w") == "a"
        hello(state, "w", conn=second, pid=1)
        state.connection_lost(first)
        status = call(state, "status")["status"]
        assert status["fleet"]["crashes"] == {}
        assert status["fleet"]["requeues"] == 0
        assert status["leases"]["w"]["count"] == 1
        assert lease(state, "w") == "b"

    def test_goodbye_is_not_a_crash(self, state):
        conn = object()
        hello(state, "leaver", conn=conn)
        assert call(state, "goodbye", worker="leaver")["ok"]
        state.connection_lost(conn)  # the goodbye's connection then ends
        after = fleet(state)
        assert "leaver" not in after["live"]
        assert after["crashes"] == {}

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
                transport.submit_chunk(0, ChunkTask.of([(0, URL_RUN)]))
        finally:
            transport.close()

    def test_close_idempotent_and_submit_after_close_rejected(self):
        transport = QueueTransport()
        transport.close()
        transport.close()
        with pytest.raises(TransportError, match="closed"):
            transport.submit_chunk(0, ChunkTask.of([(0, URL_RUN)]))

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

    def test_a_node_is_one_put_of_single_lane_runs(self):
        """A node's lane runs go to the broker in one put and are queued,
        leased and returned one by one: three runs become three queued
        items, and one take leases exactly one."""
        with EmbeddedBroker() as shared:
            transport = QueueTransport(shared)
            client = BrokerClient(shared.address)
            try:
                transport.start(EnvSpec.from_env(SimulationEnvironment()))
                transport.submit_chunk(
                    "node", ChunkTask.of([(i, URL_RUN) for i in range(3)])
                )
                (cid,) = client.call("campaigns")["campaigns"]
                status = client.call("status")["status"]
                assert status["campaigns"][cid]["tasks_pending"] == 3
                client.call("hello", proto=BROKER_PROTOCOL, worker="w", meta={})
                reply = client.call("take_any", worker="w", timeout=0.1)
                assert reply["campaign"] == cid
                assert reply["item"] == {"token": 0, "run": URL_RUN}
                status = client.call("status")["status"]
                assert status["campaigns"][cid]["tasks_pending"] == 2
                assert status["campaigns"][cid]["leased_points"] == 1
                assert status["leases"]["w"]["count"] == 1
                client.call("goodbye", worker="w")  # hand the lease back
            finally:
                client.close()
                transport.close()

    def test_no_workers_times_out(self):
        transport = QueueTransport(worker_timeout=0.5)
        try:
            transport.start(EnvSpec.from_env(SimulationEnvironment()))
            transport.submit_chunk(0, ChunkTask.of([(0, URL_RUN)]))
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
        transport = QueueTransport("127.0.0.1:9", worker_timeout=0.3)
        empty_fleet = {"live": {}}
        transport._check_starvation(empty_fleet, 0.0)  # arms only
        # starved past worker_timeout, but recovered
        transport._broker_reconnected(None)
        transport._check_starvation(empty_fleet, 0.4)  # re-arms, no raise
        # continuously starved after recovery
        with pytest.raises(TransportError, match="no workers"):
            transport._check_starvation(empty_fleet, 0.8)

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

    def test_worker_waiting_for_first_campaign_stays_registered(self, tmp_path):
        """Regression: a worker launched before any campaign polled an
        op that never re-armed its TTL, so waiting out the TTL counted
        as a crash, and its first lease after the wait went unrecorded
        -- a crash then lost the leased points.  A worker waiting in
        ``take_any`` stays live, and a crash on its first lease requeues
        that lease: on the state machine with the waits as data, and
        with a real worker process that crashes on its first lease."""
        state = BrokerState(heartbeat_ttl=0.8)
        conn = object()
        hello(state, "early", conn=conn)
        wait = {"type": "cmd", "op": "take_any", "worker": "early", "running": 0}
        for step in range(1, 6):  # 2 s of waiting, well past the TTL
            now = 0.4 * step
            state.expire(now)
            # each wait runs out (the shell then asks with timeout 0)
            assert state.handle({**wait, "timeout": 0.4}, conn, now) is None
            assert state.handle({**wait, "timeout": 0.0}, conn, now)["ok"]
        assert "early" in fleet(state)["live"]
        assert fleet(state)["crashes"] == {}
        call(state, "announce", campaign={"id": "c"})
        put(state, "c", "p0")
        assert lease(state, "early", 2.1) == "p0"
        state.connection_lost(conn)  # the injected crash
        assert fleet(state)["requeues"] == 1
        hello(state, "next", 2.2)
        assert lease(state, "next", 2.2) == "p0"

        with EmbeddedBroker(heartbeat_ttl=0.8) as broker:
            client = BrokerClient(broker.address)
            worker = spawn_worker(
                broker.address, "early", "--fail-after", "1", log_dir=tmp_path
            )
            try:
                wait_live(broker.address, "early")
                spec = EnvSpec.from_env(SimulationEnvironment())
                client.call("announce", campaign={"id": "c", "spec": spec})
                run = {"token": "p0", "run": URL_RUN}
                client.call("put", campaign="c", runs=[run])
                assert worker.wait(timeout=30) == WORKER_CRASH_EXIT
                # the requeue lets the waiting take lease the run again
                client.call("hello", proto=BROKER_PROTOCOL, worker="next", meta={})
                requeued = client.call("take_any", worker="next", timeout=10.0)["item"]
                assert requeued["token"] == "p0"
                assert client.call("fleet")["fleet"]["requeues"] == 1
            finally:
                client.close()
                if worker.poll() is None:
                    worker.kill()
                    worker.wait(timeout=10)
                print_logs(tmp_path)


    def test_worker_of_another_build_refuses_the_campaign(self, tmp_path):
        """A campaign whose spec carries another model digest is refused
        before any of its runs is simulated: the worker says goodbye (its
        lease requeues, no crash counted), prints both digests and exits
        3.  Nothing from it is composed or cached."""
        cache_dir = tmp_path / "cache"
        logs = tmp_path / "logs"
        assignment = {"url_pattern": "AR", "connection": "SLL"}
        point = (NetworkConfig("Whittemore"), assignment)
        failures = []

        def coordinate(engine):
            try:
                engine.run_batch(UrlApp, [point])
            except TransportError as exc:
                failures.append(exc)

        with EmbeddedBroker() as broker:
            transport = QueueTransport(broker, max_outage_s=0.0)
            engine = ExplorationEngine(cache=cache_dir, transport=transport)
            ours = EnvSpec.from_env(engine.env)
            other = EnvSpec.from_env(engine.env)
            # the digest is not settable: forge another build's spec
            object.__setattr__(other, "model_digest", "0" * 64)
            # engine.transport() keeps this announcement: start is idempotent
            transport.start(other)
            worker = spawn_worker(broker.address, "other-build", log_dir=logs)
            client = BrokerClient(broker.address)
            coordinator = threading.Thread(target=coordinate, args=(engine,))
            try:
                wait_live(broker.address, "other-build")
                coordinator.start()
                assert worker.wait(timeout=30) == WORKER_REJECTED_EXIT
                (campaign,) = client.call("campaigns")["campaigns"].values()
                assert (campaign["tasks_pending"], campaign["leased"]) == (1, 0)
                fleet = client.call("fleet")["fleet"]
                assert (fleet["crashes"], fleet["requeues"]) == ({}, 0)
            finally:
                client.close()
                broker.close()  # ends the coordinator's wait for results
                coordinator.join(timeout=30)
                engine.close()
                if worker.poll() is None:
                    worker.kill()
                    worker.wait(timeout=10)
                print_logs(logs)
        assert not coordinator.is_alive() and len(failures) == 1
        assert engine.stats.simulations == engine.stats.composed == 0
        assert list(cache_dir.rglob("*.json")) == []
        (log,) = logs.glob("*worker-other-build*.log")
        text = log.read_text()
        assert ours.model_digest in text and "0" * 64 in text

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
        early = spawn_worker(transport.address, "early", log_dir=tmp_path)
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
            late_box.append(spawn_worker(transport.address, "late", log_dir=tmp_path))

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
            print_logs(tmp_path)
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
    def test_crashed_workers_points_are_requeued(self, tmp_path):
        transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
        crash_requeue_drill(transport, log_dir=tmp_path)

    def test_twice_crashing_worker_is_quarantined(self, tmp_path):
        transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
        quarantine_drill(transport, log_dir=tmp_path)


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
            log_dir=tmp_path / "logs",
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
            log_dir=tmp_path / "logs",
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
            log_dir=tmp_path / "logs",
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
            # signal once the take is parked in the broker's wait loop
            parked = threading.Event()
            handle = broker._state.handle

            def spy(message, conn, now):
                reply = handle(message, conn, now)
                if reply is None:
                    parked.set()
                return reply

            broker._state.handle = spy
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
                assert parked.wait(10), "the take never waited"
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
# the socket shell, and malformed frames
# ----------------------------------------------------------------------
#: Frames with one field of the wrong type: (op, fields, the field).
MALFORMED = {
    "take-timeout": ("take", {"campaign": "c", "timeout": "soon"}, "timeout"),
    "take-max": ("take", {"campaign": "c", "max": "many"}, "max"),
    "take-ack": ("take", {"campaign": "c", "ack": [["r"]]}, "ack"),
    "take_any-timeout": ("take_any", {"worker": "w", "timeout": "soon"}, "timeout"),
    "take_any-running": ("take_any", {"worker": "w", "running": "1"}, "running"),
    "announce-priority": (
        "announce", {"campaign": {"id": "d", "priority": "high"}}, "priority"
    ),
    "announce-campaign": ("announce", {"campaign": ["d"]}, "campaign"),
    "hello-meta": (
        "hello", {"proto": BROKER_PROTOCOL, "worker": "w", "meta": ["pid"]}, "meta"
    ),
    "heartbeat-meta": ("heartbeat", {"worker": "w", "meta": "fast"}, "meta"),
    "put-token": ("put", {"campaign": "c", "runs": [{"token": ["r"]}]}, "token"),
    "push_result-token": (
        "push_result", {"campaign": "c", "token": {}, "payload": {}}, "token"
    ),
}


class TestBrokerShell:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_a_malformed_frame_gets_an_error_and_changes_nothing(self, name):
        """A field of the wrong type is answered with an error that names
        it; nothing is recorded, no state moves and no crash counts."""
        op, fields, field = MALFORMED[name]
        recorded = []
        state = BrokerState(heartbeat_ttl=30.0)
        state.record = recorded.append
        call(state, "announce", campaign={"id": "c"})
        put(state, "c", "r", "s")
        hello(state, "w", pid=1)
        assert lease(state, "w") == "r"
        before, entries = pickle.dumps(state.snapshot()), len(recorded)
        reply = call(state, op, 1.0, **fields)
        assert not reply["ok"] and field in reply["error"], reply
        assert len(recorded) == entries
        assert pickle.dumps(state.snapshot()) == before
        assert fleet(state)["crashes"] == {}
        assert lease(state, "w") == "s"  # and the broker serves on

    def test_malformed_frames_over_a_socket_keep_the_connection(self, tmp_path):
        """Over a socket too: every malformed frame gets its error at
        once (a reconnecting client does not retry it), the connection
        still answers, no crash is counted and nothing is journaled."""
        with EmbeddedBroker(heartbeat_ttl=30.0, journal=tmp_path) as broker:
            client = BrokerClient(broker.address, max_outage_s=2.0)
            try:
                client.call("announce", campaign={"id": "c"})
                client.call("put", campaign="c", runs=[{"token": "r"}])
                client.call("hello", proto=BROKER_PROTOCOL, worker="w", meta={})
                assert client.call("take_any", worker="w")["item"]["token"] == "r"
                logged = client.call("status")["status"]["journal"]["log_records"]
                for name, (op, fields, field) in sorted(MALFORMED.items()):
                    reply = client.call(op, **fields)
                    assert not reply["ok"] and field in reply["error"], name
                assert client.call("ping")["ok"]
                status = client.call("status")["status"]
                assert client.reconnects == 0
            finally:
                client.close()
        assert status["journal"]["log_records"] == logged
        assert status["fleet"]["crashes"] == {}
        assert status["leases"]["w"]["count"] == 1
        assert status["campaigns"]["c"]["tasks_pending"] == 0

    def test_a_dropped_connection_fails_its_worker(self):
        """A worker whose connection ends without a goodbye is presumed
        crashed: its lease is requeued -- which wakes a waiting take --
        and its crash counted."""
        with EmbeddedBroker(heartbeat_ttl=30.0) as broker:
            doomed, admin = BrokerClient(broker.address), BrokerClient(broker.address)
            try:
                admin.call("announce", campaign={"id": "c"})
                admin.call("put", campaign="c", runs=[{"token": "r"}])
                doomed.call("hello", proto=BROKER_PROTOCOL, worker="doomed", meta={})
                assert doomed.call("take_any", worker="doomed")["item"]["token"] == "r"
                admin.call("hello", proto=BROKER_PROTOCOL, worker="next", meta={})
                doomed.close()  # no goodbye
                reply = admin.call("take_any", worker="next", timeout=10.0)
                assert reply["item"]["token"] == "r"
                after = admin.call("fleet")["fleet"]
            finally:
                admin.close()
        assert after["crashes"] == {"doomed": 1}
        assert after["requeues"] == 1
        assert "doomed" not in after["live"]


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
            spawn_worker(transport.address, "small", capacity=1, log_dir=tmp_path),
            spawn_worker(transport.address, "big", capacity=3, log_dir=tmp_path),
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
            print_logs(tmp_path)
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
