"""IPchains -- packet-filtering firewall (NetBench ``ipchains``).

The paper's third case study.  Two dominant dynamic data structures:

* ``rule`` -- the filter chain, scanned first-match for every packet;
  the chain length is the application-specific network parameter the
  paper calls "the number of rules activated in a firewall application".
* ``conn_track`` -- connection-tracking records for accepted flows
  (stateful fast path): hit records are refreshed, new flows appended,
  and the oldest entries expired when the table exceeds its capacity.
"""

from __future__ import annotations

import zlib
from operator import itemgetter

from repro.apps.base import NetworkApplication
from repro.apps.ipchains.rules import ACCEPT, build_rule_chain
from repro.ddt.records import RecordSpec
from repro.net.packet import Packet

__all__ = ["IpchainsApp"]

#: Key of a conntrack entry ``(flow_key, packets)``.
_ENTRY_KEY = itemgetter(0)


class IpchainsApp(NetworkApplication):
    """First-match firewall with stateful connection tracking.

    Application parameters (``config.app_params``):

    * ``rule_count`` -- chain length (default 64; the paper's Table 1
      implies a 3-value sweep, we use 32/64/128 in the case study).
    * ``track_entries`` -- connection-tracking capacity (default 64).
    """

    name = "IPchains"
    dominant_structures = ("rule", "conn_track")
    record_specs = {
        # ipchains rule: two addr/mask pairs, ports, proto, action, counters.
        "rule": RecordSpec("rule", size_bytes=40, key_bytes=8),
        # conntrack entry: 5-tuple, timestamps, state.
        "conn_track": RecordSpec("conn_track", size_bytes=24, key_bytes=4),
    }

    param_defaults = {"rule_count": 64, "track_entries": 64}

    def setup(self) -> None:
        """Build the rule chain from the trace's address population."""
        self._rules = self.make_structure("rule")
        self._track = self.make_structure("conn_track")
        self._track_cap = int(self.param("track_entries"))
        rule_count = int(self.param("rule_count"))
        seed = zlib.crc32(f"ipchains:{self.trace.name}:{rule_count}".encode())
        for rule in build_rule_chain(self.trace, rule_count, seed):
            self._rules.append(rule)
        self.stats["rules"] = len(self._rules)

    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> None:
        """Filter one packet: conntrack fast path, else first-match scan."""
        key = packet.flow_key
        reverse = (key[1], key[0], key[3], key[2], key[4])

        # Stateful fast path: established flows skip the chain.
        tracked = self._track.find_key(_ENTRY_KEY, key, reverse)
        if tracked is not None:
            pos, entry = tracked
            self._track.set(pos, (entry[0], entry[1] + 1))
            self.stats.bump("fastpath_accepted")
            if packet.is_tcp_fin:
                self._track.remove_at(pos)
                self.stats.bump("tracked_closed")
            return

        # First-match chain scan.
        hit = self._rules.find(lambda rule: rule.matches(packet))
        if hit is None:
            self.stats.bump("default_denied")
            return

        _, rule = hit
        if rule.action == ACCEPT:
            self.stats.bump("accepted")
            if not packet.is_tcp_fin:
                self._track.append((key, 1))
                self.stats.bump("tracked_opened")
                if len(self._track) > self._track_cap:
                    self._track.pop_front()  # expire the oldest entry
                    self.stats.bump("tracked_expired")
        else:
            self.stats.bump("denied")
