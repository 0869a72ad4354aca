"""Durability tests: the broker journal, replay, reconnect, clean shutdown.

PR 6 promotes the embedded broker from an in-memory convenience to a
durable service: every state change is journaled to a write-ahead log
before it is applied, a restarted broker replays snapshot + log and
resumes, and clients ride out the restart by reconnecting.  These tests
cover the journal file format edge cases (torn tails, corrupt
snapshots, compaction), broker-level replay semantics (FIFO order,
lease requeue, un-acked redelivery, duplicate-token rejection across a
restart), the reconnecting client, and the standalone broker's clean
SIGINT/SIGTERM shutdown.

The full mid-campaign kill -9 drill lives in ``tests/test_broker.py``
(``TestBrokerRestart``) on top of ``support.faults.broker_restart_drill``.
"""

import json
import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib

import pytest

from support.faults import free_port, spawn_broker, worker_env

from repro.core.broker import (
    BROKER_PROTOCOL,
    BrokerClient,
    BrokerUnavailableError,
    EmbeddedBroker,
)
from repro.core.journal import (
    LOG_NAME,
    RECORD_VERSION,
    SNAPSHOT_NAME,
    Journal,
    JournalWarning,
)


def write_raw_records(directory, records):
    """Append ``records`` to the log with the journal's CRC framing but
    no version envelope -- what an older (or newer) build wrote."""
    with open(directory / LOG_NAME, "ab") as handle:
        for record in records:
            blob = pickle.dumps(record)
            crc = zlib.crc32(blob) & 0xFFFFFFFF
            handle.write(struct.pack("<II", len(blob), crc) + blob)


def chunk(token, points=1):
    """A chunk item of ``points`` points."""
    return {"token": token, "points": [{"token": (token, i)} for i in range(points)]}


def hello(client, worker):
    assert client.call("hello", proto=BROKER_PROTOCOL, worker=worker, meta={})["ok"]


def lease(client, worker, timeout=0.1):
    """The token of the chunk ``worker`` leases next, or ``None``."""
    item = client.call("take_any", worker=worker, timeout=timeout)["item"]
    return None if item is None else item["token"]


# ----------------------------------------------------------------------
# journal file format
# ----------------------------------------------------------------------
class TestJournalFormat:
    def test_append_then_load_roundtrips(self, tmp_path):
        writer = Journal(tmp_path)
        assert writer.load() == (None, [])
        entries = [("put", "q", {"token": i}) for i in range(3)]
        for entry in entries:
            writer.append(entry)
        writer.close()
        reader = Journal(tmp_path)
        try:
            assert reader.load() == (None, entries)
        finally:
            reader.close()

    @pytest.mark.parametrize(
        "record, version",
        [
            (("put", "q", 1), 1),  # a bare entry from a version-1 log
            ({"v": 2, "entry": ("put", "q", 1)}, 2),
            ({"v": 3, "entry": ("put", "q", 1)}, 3),
            ({"v": RECORD_VERSION + 1, "entry": ("put", "q", 1)}, RECORD_VERSION + 1),
        ],
        ids=["bare-v1", "v2", "v3", "newer"],
    )
    def test_record_of_another_version_is_refused(self, tmp_path, record, version):
        """A record of another version is refused, not translated: the
        load stops there with a warning naming the version, and the
        tail is truncated like a damaged one."""
        writer = Journal(tmp_path)
        writer.load()
        writer.append(("put", "q", 0))
        writer.close()
        # a current record after the refused one is not replayed either
        current = {"v": RECORD_VERSION, "entry": ("put", "q", 2)}
        write_raw_records(tmp_path, [record, current])
        reader = Journal(tmp_path)
        try:
            with pytest.warns(JournalWarning, match=f"record version {version}"):
                snapshot, entries = reader.load()
            assert snapshot is None
            assert entries == [("put", "q", 0)]
        finally:
            reader.close()
        again = Journal(tmp_path)
        try:
            assert again.load() == (None, [("put", "q", 0)])  # tail is gone
        finally:
            again.close()

    @pytest.mark.parametrize(
        "damage",
        ["torn header", "torn payload", "bad crc", "garbage"],
    )
    def test_damaged_tail_truncated_with_warning(self, tmp_path, damage):
        """A broker killed mid-write leaves a torn tail; recovery keeps
        the valid prefix and *truncates* the damage, never crashes."""
        writer = Journal(tmp_path)
        writer.load()
        for i in range(3):
            writer.append(("put", "q", i))
        writer.close()
        log = tmp_path / LOG_NAME
        blob = log.read_bytes()
        if damage == "torn header":
            log.write_bytes(blob + b"\x03\x00")
        elif damage == "torn payload":
            # a full header promising 64 bytes that never arrived
            import struct

            log.write_bytes(blob + struct.pack("<II", 64, 0) + b"x" * 5)
        elif damage == "bad crc":
            # flip one payload byte of the final record
            log.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        else:
            log.write_bytes(blob + os.urandom(23))
        reader = Journal(tmp_path)
        try:
            with pytest.warns(JournalWarning, match="truncating the tail"):
                snapshot, entries = reader.load()
            expected = 2 if damage == "bad crc" else 3
            assert snapshot is None
            assert entries == [("put", "q", i) for i in range(expected)]
            # the tail is physically gone: appends land after the prefix
            reader.append(("put", "q", 99))
            reader.close()
            again = Journal(tmp_path)
            _, replay = again.load()
            again.close()
            assert replay[-1] == ("put", "q", 99)
            assert replay[:-1] == entries
        finally:
            reader.close()

    def test_corrupt_snapshot_recovers_from_log_alone(self, tmp_path):
        writer = Journal(tmp_path)
        writer.load()
        writer.append(("set", "k", 1))
        writer.compact({"kv": {"k": 1}})
        writer.append(("set", "k", 2))
        writer.close()
        (tmp_path / SNAPSHOT_NAME).write_bytes(b"not a pickle")
        reader = Journal(tmp_path)
        try:
            with pytest.warns(JournalWarning, match="snapshot"):
                snapshot, entries = reader.load()
            assert snapshot is None
            assert entries == [("set", "k", 2)]
        finally:
            reader.close()

    def test_compaction_folds_log_into_snapshot(self, tmp_path):
        """State from (snapshot + log suffix) equals state from the full
        log: compaction moves the prefix, it never drops entries."""
        writer = Journal(tmp_path, compact_every=3)
        writer.load()
        applied = []
        for i in range(3):
            writer.append(("put", "q", i))
            applied.append(i)
        assert writer.due_for_compaction
        writer.compact({"q": list(applied)})
        assert not writer.due_for_compaction
        for i in (3, 4):
            writer.append(("put", "q", i))
        position = writer.position
        assert position["log_records"] == 2
        assert position["compactions"] == 1
        assert position["snapshot_bytes"] > 0
        writer.close()
        reader = Journal(tmp_path)
        try:
            snapshot, entries = reader.load()
            state = list(snapshot["q"]) + [entry[2] for entry in entries]
            assert state == [0, 1, 2, 3, 4]
        finally:
            reader.close()

    def test_append_after_close_is_a_noop(self, tmp_path):
        writer = Journal(tmp_path)
        writer.load()
        writer.append(("set", "k", 1))
        writer.close()
        writer.append(("set", "k", 2))  # must not raise or write
        reader = Journal(tmp_path)
        try:
            assert reader.load() == (None, [("set", "k", 1)])
        finally:
            reader.close()


# ----------------------------------------------------------------------
# broker-level replay semantics
# ----------------------------------------------------------------------
class TestBrokerReplay:
    def test_restart_preserves_fifo_and_rejects_replayed_results(self, tmp_path):
        with EmbeddedBroker(journal=tmp_path) as broker:
            client = BrokerClient(broker.address)
            try:
                assert client.call("announce", campaign={"id": "c1"})["ok"]
                for token in (1, 2, 3):
                    client.call("put", campaign="c1", item=chunk(token))
                assert client.call(
                    "push_result", campaign="c1", token=7, payload={}, worker="w"
                )["dup"] is False
            finally:
                client.close()
        # a fresh process on the same journal resumes the exact state
        with EmbeddedBroker(journal=tmp_path) as successor:
            client = BrokerClient(successor.address)
            try:
                hello(client, "w")
                assert [lease(client, "w") for _ in range(3)] == [1, 2, 3]
                campaigns = client.call("campaigns")["campaigns"]
                assert list(campaigns) == ["c1"]
                assert campaigns["c1"]["state"] == "running"
                # the seen-token set survived: a replayed frame is a dup
                dup = client.call(
                    "push_result", campaign="c1", token=7, payload={}, worker="w"
                )
                assert dup["dup"] is True
            finally:
                client.close()

    def test_older_journals_are_refused_not_translated(self, tmp_path):
        """A journal written by an older build -- a version-1 or
        version-3 log, or an unversioned (version-3 or older) snapshot
        -- is refused with one warning naming the version: the successor
        registers no campaign and serves none of its chunks."""
        v3_campaign = {
            "id": "c1",
            "tasks": "tasks:c1",
            "results": "results:c1",
            "spec": None,
            "priority": 1.0,
        }
        v3_snapshot = {
            "queues": {"tasks:c1": [chunk(0)]},
            "seen": {"results:c1": set()},
            "campaigns": {"c1": {**v3_campaign, "state": "running"}},
            "leases": {},
            "delivered": {},
            "seen_workers": set(),
            "crashes": {},
            "quarantined": [],
            "requeues": 0,
            "dup_results": 0,
        }
        v3_log = [
            {"v": 3, "entry": ("announce", v3_campaign)},
            {"v": 3, "entry": ("put", "tasks:c1", chunk(1))},
        ]
        cases = [
            ("record version 1", None, [("reset", v3_campaign, {"w": 4})]),
            ("record version 3", None, v3_log),
            ("record version 3 or older", v3_snapshot, v3_log),
        ]
        for version, snapshot, log in cases:
            for name in (SNAPSHOT_NAME, LOG_NAME):
                (tmp_path / name).unlink(missing_ok=True)
            if snapshot is not None:
                (tmp_path / SNAPSHOT_NAME).write_bytes(pickle.dumps(snapshot))
            write_raw_records(tmp_path, log)
            with pytest.warns(JournalWarning, match=version) as caught:
                broker = EmbeddedBroker(journal=tmp_path)
            refusals = [w for w in caught if issubclass(w.category, JournalWarning)]
            assert len(refusals) == 1, version
            with broker:
                client = BrokerClient(broker.address)
                try:
                    reply = client.call("campaigns")
                    assert reply["campaigns"] == {} and reply["running"] == 0
                    hello(client, "w")
                    assert lease(client, "w", timeout=0.05) is None
                    take = client.call("take", campaign="c1", ack=[], timeout=0.0)
                    assert not take["ok"] and "unknown campaign" in take["error"]
                finally:
                    client.close()

    def test_late_result_for_a_withdrawn_campaign_leaves_no_state(self, tmp_path):
        """A worker's push for a campaign that was concluded and
        withdrawn is answered and dropped: no campaign, result or seen
        token appears, live or after a journaled restart."""
        with EmbeddedBroker(journal=tmp_path) as broker:
            client = BrokerClient(broker.address)
            try:
                client.call("announce", campaign={"id": "gone"})
                client.call("conclude", campaign="gone")
                client.call("withdraw", campaign="gone")
                late = client.call(
                    "push_result", campaign="gone", token=3, payload={}, worker="w"
                )
                assert late["ok"] and late["dropped"]
                status = client.call("status")["status"]
            finally:
                client.close()
        assert status["campaigns"] == {} and status["fleet"]["pending"] == {}
        assert status["fleet"]["dup_results"] == 0
        with EmbeddedBroker(journal=tmp_path) as successor:
            client = BrokerClient(successor.address)
            try:
                status = client.call("status")["status"]
                take = client.call("take", campaign="gone", ack=[], timeout=0.0)
            finally:
                client.close()
        assert status["campaigns"] == {} and status["fleet"]["pending"] == {}
        assert not take["ok"]

    def test_journaled_lease_requeued_at_front_for_other_workers(self, tmp_path):
        """A lease held when the broker died is requeued at the *front*
        on recovery, so another worker picks it up first even if its
        original owner never returns.  The blame stays with the broker:
        requeues are counted, crashes are not."""
        broker = EmbeddedBroker(journal=tmp_path)
        broker.start()
        client = BrokerClient(broker.address)
        try:
            client.call("announce", campaign={"id": "c"})
            client.call("put", campaign="c", item=chunk("leased"))
            client.call("put", campaign="c", item=chunk("second"))
            hello(client, "doomed")
            assert lease(client, "doomed") == "leased"
        finally:
            # broker first: this is the broker dying, not the worker --
            # a client hangup before broker close would be blamed on
            # "doomed" as a presumed crash (PR 5 semantics).
            broker.close()
            client.close()
        with EmbeddedBroker(journal=tmp_path) as successor:
            client = BrokerClient(successor.address)
            try:
                hello(client, "survivor")
                order = [lease(client, "survivor") for _ in range(2)]
                assert order == ["leased", "second"]
                fleet = client.call("fleet")["fleet"]
                assert fleet["requeues"] == 1
                assert fleet["crashes"] == {}
            finally:
                client.close()

    def test_half_acked_chunk_replays_point_granular(self, tmp_path):
        """A chunk lease with some points already resulted is requeued
        on replay with only the unfinished remainder: the journaled
        ``result`` entries strip completed points from the lease, so a
        restarted broker never re-runs (or double-counts) them."""
        points = [{"token": f"p{i}"} for i in range(3)]
        broker = EmbeddedBroker(journal=tmp_path)
        broker.start()
        client = BrokerClient(broker.address)
        try:
            client.call("announce", campaign={"id": "c"})
            client.call("put", campaign="c", item={"token": "c0", "points": points})
            hello(client, "doomed")
            taken = client.call("take_any", worker="doomed", timeout=0.1)
            assert [p["token"] for p in taken["item"]["points"]] == [
                "p0", "p1", "p2",
            ]
            # the first point of the chunk completes and is journaled
            assert client.call(
                "push_result", campaign="c", token="p0", payload={},
                worker="doomed",
            )["dup"] is False
        finally:
            # broker first: the broker dies, the worker is not to blame
            broker.close()
            client.close()
        with EmbeddedBroker(journal=tmp_path) as successor:
            client = BrokerClient(successor.address)
            try:
                hello(client, "survivor")
                again = client.call("take_any", worker="survivor", timeout=0.1)
                # only the unfinished remainder of the chunk came back
                assert [p["token"] for p in again["item"]["points"]] == [
                    "p1", "p2",
                ]
                fleet = client.call("fleet")["fleet"]
                assert fleet["requeues"] == 2  # points, never chunks
                assert fleet["crashes"] == {}
                # the completed point is still a duplicate after replay
                assert client.call(
                    "push_result", campaign="c", token="p0", payload={},
                    worker="survivor",
                )["dup"] is True
            finally:
                client.close()

    def test_unacked_coordinator_delivery_redelivered_after_restart(self, tmp_path):
        """A result the coordinator took but never acked by a follow-up
        take is redelivered on restart -- at-least-once, with the
        stale-token skip making it safe."""

        def take(client, ack=()):
            reply = client.call(
                "take", campaign="c", ack=list(ack), max=8, timeout=0.05
            )
            return [item["token"] for item in reply["items"]]

        with EmbeddedBroker(journal=tmp_path) as broker:
            client = BrokerClient(broker.address)
            try:
                client.call("announce", campaign={"id": "c"})
                client.call("push_result", campaign="c", token=1, payload={})
                assert take(client) == [1]  # delivered, never acked
            finally:
                client.close()
        with EmbeddedBroker(journal=tmp_path) as successor:
            client = BrokerClient(successor.address)
            try:
                assert take(client) == [1]
                # acking clears it: nothing is redelivered a third time
                assert take(client, ack=[1]) == []
            finally:
                client.close()
        with EmbeddedBroker(journal=tmp_path) as third:
            client = BrokerClient(third.address)
            try:
                assert take(client) == []
            finally:
                client.close()

    def test_compaction_under_live_traffic(self, tmp_path):
        """With a tiny compaction interval, concurrent producers force
        compactions mid-stream; the restarted state is still exact."""
        with EmbeddedBroker(journal=tmp_path, compact_every=5) as broker:
            announcer = BrokerClient(broker.address)
            try:
                announcer.call("announce", campaign={"id": "c"})
            finally:
                announcer.close()

            def produce(start):
                mine = BrokerClient(broker.address)
                try:
                    for i in range(start, start + 20):
                        mine.call("put", campaign="c", item=chunk(i))
                finally:
                    mine.close()

            threads = [
                threading.Thread(target=produce, args=(base,))
                for base in (0, 100)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert broker._journal.compactions >= 1
        with EmbeddedBroker(journal=tmp_path) as successor:
            client = BrokerClient(successor.address)
            try:
                hello(client, "w")
                tokens = set()
                while (token := lease(client, "w", timeout=0.05)) is not None:
                    tokens.add(token)
                assert tokens == set(range(20)) | set(range(100, 120))
            finally:
                client.close()

    def test_drop_announcement_withdraws_campaign_durably(self, tmp_path):
        broker = EmbeddedBroker(journal=tmp_path)
        broker.start()
        try:
            client = BrokerClient(broker.address)
            try:
                assert client.call("announce", campaign={"id": "done"})["ok"]
                assert "done" in client.call("campaigns")["campaigns"]
            finally:
                client.close()
            broker.drop_announcement()
        finally:
            broker.close()
        with EmbeddedBroker(journal=tmp_path) as successor:
            client = BrokerClient(successor.address)
            try:
                assert client.call("campaigns")["campaigns"] == {}
            finally:
                client.close()

    def test_status_op_reports_json_safe_state(self, tmp_path):
        with EmbeddedBroker(journal=tmp_path) as broker:
            client = BrokerClient(broker.address)
            try:
                client.call("announce", campaign={"id": "c"})
                client.call("put", campaign="c", item=chunk(1, points=3))
                client.call("push_result", campaign="c", token=(1, 0), payload={})
                hello(client, "w")
                assert lease(client, "w") == 1
                status = client.call("status")["status"]
            finally:
                client.close()
        json.dumps(status)  # must be JSON-safe for the CLI
        assert status["proto"] == BROKER_PROTOCOL
        assert status["uptime_s"] >= 0
        assert status["leases"]["w"]["count"] == 1
        assert status["campaigns"]["c"] == {
            "state": "running",
            "priority": 1.0,
            "tasks_pending": 0,
            "results_pending": 1,
            "results_seen": 1,
            "unacked": 0,
            "leased_points": 3,
        }
        assert status["journal"]["directory"] == str(tmp_path)
        assert "w" in status["fleet"]["live"]

    def test_journal_less_broker_reports_no_journal(self):
        with EmbeddedBroker() as broker:
            client = BrokerClient(broker.address)
            try:
                status = client.call("status")["status"]
            finally:
                client.close()
        assert status["journal"] is None


# ----------------------------------------------------------------------
# reconnecting client
# ----------------------------------------------------------------------
class TestBrokerReconnect:
    def test_client_rides_out_a_same_address_restart(self, tmp_path):
        address = f"127.0.0.1:{free_port()}"
        first = EmbeddedBroker(address, journal=tmp_path)
        first.start()
        client = BrokerClient(address, max_outage_s=30.0)
        successor = []
        try:
            client.call("announce", campaign={"id": "c"})
            client.call("put", campaign="c", item=chunk(1))

            def restart():
                time.sleep(0.3)
                first.close()
                time.sleep(0.5)
                successor.append(EmbeddedBroker(address, journal=tmp_path))
                successor[0].start()

            stagehand = threading.Thread(target=restart)
            stagehand.start()
            time.sleep(0.4)  # land the call inside the outage window
            campaigns = client.call("campaigns")["campaigns"]
            stagehand.join()
            assert campaigns["c"]["tasks_pending"] == 1
            assert client.reconnects == 1
            assert client.last_outage_s > 0
        finally:
            client.close()
            first.close()
            for broker in successor:
                broker.close()

    def test_zero_outage_window_fails_fast_with_context(self, tmp_path):
        broker = EmbeddedBroker(journal=tmp_path)
        broker.start()
        address = broker.address
        client = BrokerClient(address, max_outage_s=0.0)
        try:
            broker.close()
            with pytest.raises(BrokerUnavailableError, match="during 'ping'"):
                client.call("ping")
            try:
                client.call("ping")
            except BrokerUnavailableError as exc:
                assert exc.op == "ping"
                assert exc.address == address
        finally:
            client.close()

    def test_outage_longer_than_window_surfaces_unavailable(self):
        address = f"127.0.0.1:{free_port()}"
        broker = EmbeddedBroker(address)
        broker.start()
        client = BrokerClient(address, max_outage_s=0.4)
        try:
            broker.close()  # and nobody restarts it
            start = time.monotonic()
            with pytest.raises(BrokerUnavailableError):
                client.call("ping")
            assert time.monotonic() - start >= 0.3
        finally:
            client.close()


# ----------------------------------------------------------------------
# standalone broker process: clean signals, status CLI
# ----------------------------------------------------------------------
class TestStandaloneBrokerProcess:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_signal_is_a_clean_shutdown(self, tmp_path, signum):
        """Ctrl-C / supervisor TERM flushes the journal, withdraws the
        announcement and exits 0 -- never a traceback."""
        address = f"127.0.0.1:{free_port()}"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.tools.explore",
                "broker",
                "--bind",
                address,
                "--journal",
                str(tmp_path),
            ],
            env=worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            host, _, port = address.rpartition(":")
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                try:
                    socket.create_connection((host, int(port)), timeout=1).close()
                    break
                except OSError:
                    time.sleep(0.05)
            client = BrokerClient(address)
            try:
                assert client.call("announce", campaign={"id": "c"})["ok"]
            finally:
                client.close()
            proc.send_signal(signum)
            stderr = proc.communicate(timeout=20)[1]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 0, stderr
        assert "clean shutdown" in stderr
        assert "Traceback" not in stderr
        # the shutdown compacted the journal and dropped the announcement
        assert (tmp_path / SNAPSHOT_NAME).exists()
        with EmbeddedBroker(journal=tmp_path) as successor:
            client = BrokerClient(successor.address)
            try:
                assert client.call("campaigns")["campaigns"] == {}
            finally:
                client.close()

    def test_status_cli_prints_json(self, tmp_path, capsys):
        from repro.tools import explore

        address = f"127.0.0.1:{free_port()}"
        broker = spawn_broker(address, journal=str(tmp_path))
        try:
            assert explore.main(["broker", "--status", address]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["proto"] == BROKER_PROTOCOL
            assert status["journal"]["directory"] == str(tmp_path)
        finally:
            broker.terminate()
            broker.wait(timeout=10)

    def test_status_cli_unreachable_broker_errors(self, capsys):
        from repro.tools import explore

        address = f"127.0.0.1:{free_port()}"
        assert explore.main(["broker", "--status", address]) == 1
        assert "--status" in capsys.readouterr().err
