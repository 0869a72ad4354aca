"""URL -- URL-based context switching (NetBench ``url``).

The paper's second case study: a layer-7 switch that dispatches HTTP
requests to server groups by URL content and tracks switched
connections.  Two dominant dynamic data structures (both singly linked
lists in the original NetBench implementation -- the paper's baseline
for the "energy -80% / time -20%" headline comparison):

* ``url_pattern`` -- the pattern table, scanned first-match per request;
* ``connection`` -- active switched-connection records, keyed by flow,
  created on TCP SYN / first request and destroyed on FIN.
"""

from __future__ import annotations

import zlib
from operator import itemgetter

from repro.apps.base import NetworkApplication
from repro.apps.url.matcher import build_pattern_table
from repro.ddt.records import RecordSpec
from repro.net.packet import Packet, Protocol

__all__ = ["UrlApp"]

#: Key of a connection entry ``(flow_key, server_id, bytes)``.
_CONN_KEY = itemgetter(0)


class UrlApp(NetworkApplication):
    """URL-based switching over DDT pattern and connection tables.

    Application parameters (``config.app_params``):

    * ``pattern_count`` -- URL patterns in the table (default 64).
    * ``server_count`` -- dispatch target groups (default 8).
    """

    name = "URL"
    dominant_structures = ("url_pattern", "connection")
    record_specs = {
        # pattern: string pointer, length, server id, hit counter, next.
        "url_pattern": RecordSpec("url_pattern", size_bytes=48, key_bytes=8),
        # connection: 5-tuple key, server id, state, byte counters.
        "connection": RecordSpec("connection", size_bytes=32, key_bytes=4),
    }

    param_defaults = {"pattern_count": 64, "server_count": 8}

    def setup(self) -> None:
        """Build the URL pattern table; the connection table starts empty."""
        self._patterns = self.make_structure("url_pattern")
        self._connections = self.make_structure("connection")
        pattern_count = int(self.param("pattern_count"))
        servers = int(self.param("server_count"))
        seed = zlib.crc32(f"url:{self.trace.name}:{pattern_count}".encode())
        for pattern in build_pattern_table(pattern_count, seed, servers):
            self._patterns.append(pattern)
        self.stats["patterns"] = len(self._patterns)

    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> None:
        """Switch one packet: connection lookup, URL dispatch, lifecycle."""
        if packet.protocol is not Protocol.TCP:
            self.stats.bump("ignored")
            return

        # The switch proxies every TCP packet: look its connection up
        # (canonical direction = client -> server, i.e. the SYN's tuple).
        # New connections enter at the front (recent flows are the hot
        # ones, and packet trains find them after a short scan).
        key = packet.flow_key
        reverse = (key[1], key[0], key[3], key[2], key[4])
        hit = self._connections.find_key(_CONN_KEY, key, reverse)

        if hit is None:
            server_id = self._dispatch(packet) if packet.url is not None else 0
            self._connections.insert(0, (key, server_id, packet.size_bytes))
            self.stats.bump("connections_opened")
        else:
            pos, conn = hit
            if packet.is_tcp_fin:
                self._connections.remove_at(pos)
                self.stats.bump("connections_closed")
            else:
                server_id = conn[1]
                if packet.url is not None:
                    server_id = self._dispatch(packet)
                self._connections.set(
                    pos, (conn[0], server_id, conn[2] + packet.size_bytes)
                )
        self.stats.bump("switched")

    # ------------------------------------------------------------------
    def _dispatch(self, packet: Packet) -> int:
        """First-match URL pattern scan; returns the server group."""
        url = packet.url or ""
        self.stats.bump("requests")
        match = self._patterns.find(lambda pat: pat[0] in url)
        if match is None:
            self.stats.bump("default_dispatched")
            return 0
        _, pattern = match
        self.stats.bump("pattern_matched")
        return pattern[1]

    def finish(self) -> None:
        """Record how many switched connections stayed open."""
        self.stats["connections_open_at_end"] = len(self._connections)
