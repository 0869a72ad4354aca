"""Tests of the four case-study applications.

The load-bearing invariant: application *stats* (functional output) are
identical across DDT assignments -- only metrics differ.
"""

import pytest

from repro.apps import ALL_APPS, DrrApp, IpchainsApp, RouteApp, UrlApp
from repro.ddt.registry import all_ddt_names
from repro.memory.profiler import MemoryProfiler
from repro.net.config import NetworkConfig
from repro.net.packet import Packet, Protocol, TcpFlags
from repro.net.trace import Trace

#: A small, fast trace shared by most tests.
SMALL = NetworkConfig("Whittemore")


def run_app(app_cls, config, assignment=None, trace=None):
    profiler = MemoryProfiler()
    assignment = assignment or {s: "SLL" for s in app_cls.dominant_structures}
    app = app_cls(config, assignment, profiler)
    stats = app.run(trace if trace is not None else config.load_trace())
    return stats, profiler.metrics()


def app_config(app_cls):
    if app_cls is RouteApp:
        return NetworkConfig("Whittemore", {"radix_size": 64})
    if app_cls is IpchainsApp:
        return NetworkConfig("Whittemore", {"rule_count": 32})
    return SMALL


class TestApplicationContract:
    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_two_dominant_structures(self, app_cls):
        """Each paper case study has two dominant data structures."""
        assert len(app_cls.dominant_structures) == 2
        assert set(app_cls.record_specs) == set(app_cls.dominant_structures)

    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_incomplete_assignment_rejected(self, app_cls):
        with pytest.raises(ValueError):
            app_cls(SMALL, {app_cls.dominant_structures[0]: "AR"}, MemoryProfiler())

    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_extra_assignment_rejected(self, app_cls):
        assignment = {s: "AR" for s in app_cls.dominant_structures}
        assignment["bogus"] = "AR"
        with pytest.raises(ValueError):
            app_cls(SMALL, assignment, MemoryProfiler())

    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_stats_ddt_independent(self, app_cls):
        """Functional behaviour never depends on the DDT assignment."""
        config = app_config(app_cls)
        trace = config.load_trace()
        baseline = None
        for ddt in ("AR", "DLL", "SLL(ARO)"):
            assignment = {s: ddt for s in app_cls.dominant_structures}
            stats, _ = run_app(app_cls, config, assignment, trace)
            if baseline is None:
                baseline = stats
            else:
                assert stats == baseline, f"{app_cls.name} diverged under {ddt}"

    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_metrics_ddt_dependent(self, app_cls):
        """Cost metrics do depend on the DDT assignment."""
        config = app_config(app_cls)
        trace = config.load_trace()
        _, m_ar = run_app(
            app_cls, config, {s: "AR" for s in app_cls.dominant_structures}, trace
        )
        _, m_sll = run_app(
            app_cls, config, {s: "SLL" for s in app_cls.dominant_structures}, trace
        )
        assert m_ar.accesses != m_sll.accesses

    @pytest.mark.parametrize("app_cls", ALL_APPS)
    def test_packets_counted(self, app_cls):
        config = app_config(app_cls)
        trace = config.load_trace()
        stats, _ = run_app(app_cls, config, trace=trace)
        assert stats["packets"] == len(trace)


class TestRouteApp:
    def test_every_packet_routed(self):
        config = NetworkConfig("Whittemore", {"radix_size": 64})
        stats, _ = run_app(RouteApp, config)
        assert stats["routed"] == stats["packets"]
        decided = (
            stats.get("cache_hits", 0)
            + stats.get("tree_hits", 0)
            + stats.get("default_routed", 0)
        )
        assert decided == stats["routed"]

    def test_table_size_respected(self):
        for size in (32, 64, 128):
            config = NetworkConfig("Whittemore", {"radix_size": size})
            stats, _ = run_app(RouteApp, config)
            assert stats["table_routes"] == size

    def test_cache_bounded(self):
        config = NetworkConfig("Whittemore", {"radix_size": 64, "cache_entries": 8})
        profiler = MemoryProfiler()
        app = RouteApp(config, {"radix_node": "AR", "rtentry": "AR"}, profiler)
        app.run(config.load_trace())
        assert len(app._cache) <= 8

    def test_bigger_table_more_tree_hits(self):
        small, _ = run_app(RouteApp, NetworkConfig("BWY-I", {"radix_size": 32}))
        large, _ = run_app(RouteApp, NetworkConfig("BWY-I", {"radix_size": 256}))
        assert large.get("default_routed", 0) < small.get("default_routed", 0)


class TestUrlApp:
    def test_connection_lifecycle(self):
        stats, _ = run_app(UrlApp, SMALL)
        assert stats["connections_opened"] > 0
        assert stats["connections_closed"] > 0
        assert stats["connections_closed"] <= stats["connections_opened"]
        assert (
            stats["connections_opened"] - stats["connections_closed"]
            == stats["connections_open_at_end"]
        )

    def test_requests_dispatched(self):
        stats, _ = run_app(UrlApp, SMALL)
        assert stats["requests"] > 0
        assert stats.get("pattern_matched", 0) + stats.get(
            "default_dispatched", 0
        ) == stats["requests"]

    def test_non_tcp_ignored(self):
        trace = Trace("t", "t", "campus", [
            Packet(0.0, 1, 100, 2, 53, Protocol.UDP, 64),
            Packet(0.1, 1, 100, 2, 53, Protocol.UDP, 64),
        ])
        stats, _ = run_app(UrlApp, SMALL, trace=trace)
        assert stats["ignored"] == 2
        assert "switched" not in stats

    def test_pattern_count_parameter(self):
        config = NetworkConfig("Whittemore", {"pattern_count": 16})
        stats, _ = run_app(UrlApp, config)
        assert stats["patterns"] == 16


class TestIpchainsApp:
    def test_every_packet_decided(self):
        config = NetworkConfig("Whittemore", {"rule_count": 32})
        stats, _ = run_app(IpchainsApp, config)
        decided = (
            stats.get("accepted", 0)
            + stats.get("denied", 0)
            + stats.get("default_denied", 0)
            + stats.get("fastpath_accepted", 0)
        )
        assert decided == stats["packets"]

    def test_rule_count_parameter(self):
        for count in (16, 64):
            config = NetworkConfig("Whittemore", {"rule_count": count})
            stats, _ = run_app(IpchainsApp, config)
            assert stats["rules"] == count

    def test_tracking_bounded(self):
        config = NetworkConfig("BWY-I", {"rule_count": 32, "track_entries": 16})
        profiler = MemoryProfiler()
        app = IpchainsApp(config, {"rule": "AR", "conn_track": "AR"}, profiler)
        app.run(config.load_trace())
        assert len(app._track) <= 16

    def test_fastpath_reduces_chain_scans(self):
        """Tracked flows bypass the rule chain."""
        config = NetworkConfig("BWY-I", {"rule_count": 64})
        stats, _ = run_app(IpchainsApp, config)
        assert stats["fastpath_accepted"] > 0


class TestDrrApp:
    def test_all_packets_scheduled(self):
        stats, _ = run_app(DrrApp, SMALL)
        assert stats["enqueued"] == stats["packets"]
        assert stats["dequeued"] == stats["enqueued"]  # finish() drains
        assert stats["flows_active_at_end"] == 0

    def test_bytes_conserved(self):
        config = SMALL
        trace = config.load_trace()
        stats, _ = run_app(DrrApp, config, trace=trace)
        assert stats["bytes_sent"] == trace.total_bytes

    def test_quantum_affects_rounds(self):
        small_q, _ = run_app(DrrApp, NetworkConfig("Whittemore", {"quantum": 256}))
        large_q, _ = run_app(DrrApp, NetworkConfig("Whittemore", {"quantum": 4096}))
        assert small_q["rounds"] >= large_q["rounds"]

    def test_invalid_parameters(self):
        config = NetworkConfig("Whittemore", {"quantum": 0})
        profiler = MemoryProfiler()
        app = DrrApp(config, {"flow_queue": "AR", "packet_buf": "AR"}, profiler)
        with pytest.raises(ValueError):
            app.run(config.load_trace())

    def test_queues_disposed(self):
        """After a full-library lane run every per-flow queue has been
        disposed: each of the ten ``packet_buf`` pools ends empty."""
        config = SMALL
        profiler = MemoryProfiler()
        library = all_ddt_names()
        app = DrrApp(config, {"flow_queue": library, "packet_buf": library}, profiler)
        app.run(config.load_trace())
        buffers = [pool for pool in profiler.pools if pool.name == "packet_buf"]
        assert len(buffers) == len(library)
        assert app.stats["flows_created"] > 1
        for pool in buffers:
            assert (pool.live_blocks, pool.live_bytes) == (0, 0)
