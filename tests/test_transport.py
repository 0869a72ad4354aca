"""Tests of the transport layer: wire frames, the local pool, the
submission contract and the worker CLI.

Distribution must be a pure scheduling layer: a campaign run through a
transport produces records equal on ``SimulationRecord.content_key()``
to a serial run.  The queue transport's own protocol, lifecycle and
fault drills live in ``tests/test_broker.py``; the fault-injection
helpers in ``tests/support/faults.py``.
"""

import socket
import subprocess

import pytest

from support.faults import spawn_worker, worker_env

from repro.apps import UrlApp
from repro.core.broker import EmbeddedBroker
from repro.core.engine import EnvSpec
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.core.transport import (
    WORKER_CONNECT_EXIT,
    WORKER_REJECTED_EXIT,
    ChunkTask,
    LaneRun,
    LocalPoolTransport,
    TransportError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.net.config import NetworkConfig

SMALL = NetworkConfig("Whittemore")
URL_RUN = LaneRun(
    UrlApp, SMALL.trace_name, dict(SMALL.app_params),
    {"url_pattern": ("AR",), "connection": ("SLL",)},
)


# ----------------------------------------------------------------------
# protocol primitives
# ----------------------------------------------------------------------
class TestFrames:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "hello", "worker": "w", "n": 42})
            message = recv_frame(b)
            assert message == {"type": "hello", "worker": "w", "n": 42}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x10\x00\x00\x00abc")  # promises 16 bytes, sends 3
            a.close()
            with pytest.raises(TransportError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        assert parse_address(("::1", 5)) == ("::1", 5)
        assert parse_address(":80") == ("127.0.0.1", 80)
        with pytest.raises(TransportError, match="HOST:PORT"):
            parse_address("no-port")
        with pytest.raises(TransportError, match="HOST:PORT"):
            parse_address("127.0.0.1:-1")


class TestLocalPoolTransport:
    def test_round_trip_matches_direct_run(self):
        env = SimulationEnvironment()
        transport = LocalPoolTransport(workers=1)
        try:
            transport.start(EnvSpec.from_env(env))
            transport.submit_chunk("c0", ChunkTask.of([("tok", URL_RUN)]))
            [(token, record)] = transport.next_results()
        finally:
            transport.close()
        direct = run_simulation(UrlApp, SMALL, URL_RUN.lanes, env)
        assert token == "tok"
        assert record.content_key() == direct.content_key()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            LocalPoolTransport(workers=0)

    def test_submit_before_start_rejected(self):
        transport = LocalPoolTransport(workers=1)
        with pytest.raises(TransportError, match="not started"):
            transport.submit_chunk(0, ChunkTask.of([(0, URL_RUN)]))

    def test_next_result_without_work_rejected(self):
        transport = LocalPoolTransport(workers=1)
        with pytest.raises(TransportError, match="no outstanding"):
            transport.next_results()

    def test_base_fleet_surface_is_inert(self):
        """The default transport tracks no fleet: stats empty."""
        transport = LocalPoolTransport(workers=1)
        assert transport.worker_stats() == {}


# ----------------------------------------------------------------------
# the submission contract: one call per node, one task per lane run
# ----------------------------------------------------------------------

class TestChunkContract:
    def test_chunk_task_shape(self):
        chunk = ChunkTask.of([(1, URL_RUN), (2, URL_RUN)])
        assert len(chunk) == 2
        assert chunk.tokens == (1, 2)
        assert ChunkTask.of([(7, URL_RUN)]).tokens == (7,)
        with pytest.raises(ValueError, match="at least one lane run"):
            ChunkTask(())

    def test_local_pool_chunk_returns_one_batch(self):
        """A 3-run chunk is three pool tasks: every run comes back once,
        across however many result batches."""
        env = SimulationEnvironment()
        transport = LocalPoolTransport(workers=1)
        try:
            transport.start(EnvSpec.from_env(env))
            transport.submit_chunk(
                "node", ChunkTask.of([(i, URL_RUN) for i in range(3)])
            )
            assert len(transport._futures) == 3
            batch = []
            while transport._futures:
                batch += transport.next_results()
        finally:
            transport.close()
        direct = run_simulation(UrlApp, SMALL, URL_RUN.lanes, env)
        assert sorted(token for token, _ in batch) == [0, 1, 2]
        assert all(
            record.content_key() == direct.content_key()
            for _token, record in batch
        )


# ----------------------------------------------------------------------
# fault injection (the crash and quarantine drills: tests/test_broker.py)
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_quarantined_id_is_rejected_on_reconnect(self, tmp_path):
        """A hello from a quarantined id is turned away at the door."""
        with EmbeddedBroker() as broker:
            broker._state.quarantined.append("banned")
            proc = spawn_worker(broker.address, "banned", log_dir=tmp_path)
            assert proc.wait(timeout=30) == WORKER_REJECTED_EXIT


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
class TestTransportCli:
    def test_campaign_rejects_workers_with_queue(self):
        from repro.tools import explore

        with pytest.raises(SystemExit):
            explore.main(
                ["campaign", "--transport", "queue", "--workers", "2"]
            )

    def test_campaign_rejects_unknown_traces(self):
        from repro.tools import explore

        with pytest.raises(SystemExit):
            explore.main(["campaign", "--apps", "url", "--traces", "Nowhere"])

    def test_worker_requires_exactly_one_connection(self):
        from repro.tools import explore

        with pytest.raises(SystemExit):  # --connect-broker is required
            explore.main(["worker"])

    def test_worker_rejects_bad_fail_after(self):
        from repro.tools import explore

        with pytest.raises(SystemExit):
            explore.main(
                ["worker", "--connect-broker", "127.0.0.1:1", "--fail-after", "0"]
            )

    def test_worker_gives_up_with_nonzero_exit_and_last_error(self, capsys):
        """A worker that never connects must not exit 0: it prints the
        last error (even under --quiet) and returns the dedicated
        connect-failure code."""
        from repro.tools import explore

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = explore.main(
            [
                "worker",
                "--connect-broker",
                f"127.0.0.1:{free_port}",
                "--retry",
                "0.2",
                "--quiet",
            ]
        )
        assert code == WORKER_CONNECT_EXIT
        assert "could not reach" in capsys.readouterr().err

    def test_worker_subprocess_exit_code_on_connect_failure(self):
        """The same guarantee holds at the process level."""
        import sys

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.tools.explore",
                "worker",
                "--connect-broker",
                f"127.0.0.1:{free_port}",
                "--retry",
                "0.2",
                "--quiet",
            ],
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == WORKER_CONNECT_EXIT
        assert "could not reach" in proc.stderr

    def test_campaign_traces_narrowing_end_to_end(self, tmp_path, capsys):
        """`--traces` swaps every app's sweep for the named traces."""
        from repro.tools import explore

        code = explore.main(
            [
                "campaign",
                "--apps",
                "url",
                "--candidates",
                "AR",
                "SLL",
                "--traces",
                "Whittemore",
                "Sudikoff",
                "--out",
                str(tmp_path / "results"),
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 1 case studies" in out
