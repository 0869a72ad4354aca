"""Route -- IPv4 routing over a radix tree (NetBench ``route``).

The paper's first case study.  Two dominant dynamic data structures:

* ``radix_node`` -- the radix-tree node store (paper: "radix_node
  structure forms the nodes of the tree").  Random-indexed ``get``
  traffic from tree walks; appends only while the table is built.
* ``rtentry`` -- the route entries ("holding the route entries and
  containing other useful pointers"), realised as the route cache
  consulted before the tree: new routes enter at the front, the oldest
  leave from the back, hits refresh the entry in place.  Keyed scans
  plus churn at both ends -- the access mix where array scans are fast
  but front-inserts burn word traffic, and lists are the opposite.

Network parameter (paper Section 3.2): the radix-tree size -- the paper
explores 128 and 256 entries (``radix_size``).

The routing table holds same-length ``/24`` prefixes drawn from the
trace's destination population plus deterministic filler, so
longest-prefix match reduces to exact match on the masked destination
with a default-route fallback.
"""

from __future__ import annotations

import random
import zlib
from operator import itemgetter

from repro.apps.base import NetworkApplication
from repro.apps.route.radix import RadixTree
from repro.ddt.records import RecordSpec
from repro.net.packet import Packet

__all__ = ["RouteApp"]

#: Table prefixes are /24 networks.
_PREFIX_MASK = 0xFFFF_FF00
#: Key of a route-cache entry ``(prefix, next_hop, uses)``.
_ENTRY_KEY = itemgetter(0)


class RouteApp(NetworkApplication):
    """IPv4 routing: route cache in front of a radix-tree table.

    Application parameters (``config.app_params``):

    * ``radix_size`` -- routing-table entries (default 128; the paper
      sweeps 128 and 256).
    * ``cache_entries`` -- route-cache capacity (default 32).
    """

    name = "Route"
    dominant_structures = ("radix_node", "rtentry")
    record_specs = {
        # BSD radix_node: bit index, masks, two child pointers, flags.
        "radix_node": RecordSpec("radix_node", size_bytes=24, key_bytes=4),
        # BSD rtentry: destination, gateway, flags, refcnt, use, ifp...
        "rtentry": RecordSpec("rtentry", size_bytes=48, key_bytes=4),
    }

    param_defaults = {"radix_size": 128, "cache_entries": 32}

    def setup(self) -> None:
        """Build the radix tree and the route cache from the trace."""
        self._nodes = self.make_structure("radix_node")
        self._cache = self.make_structure("rtentry")
        self._tree = RadixTree(self._nodes)
        self._cache_cap = int(self.param("cache_entries"))
        radix_size = int(self.param("radix_size"))
        for key, next_hop, metric in self._table_prefixes(radix_size):
            self._tree.insert(key, next_hop, metric)
        self.stats["table_routes"] = self._tree.size

    # ------------------------------------------------------------------
    def _table_prefixes(self, radix_size: int) -> list[tuple[int, int, int]]:
        """Deterministic /24 route set: trace destinations + filler.

        Must not depend on the DDT assignment: derived only from the
        trace packets and the configuration parameters.
        """
        trace = self.trace
        seen: dict[int, None] = {}
        for packet in trace.packets:
            prefix = packet.dst_ip & _PREFIX_MASK
            if prefix not in seen:
                seen[prefix] = None
        prefixes = list(seen)[: radix_size]

        # Deterministic filler for small traces / large tables (crc32 is
        # stable across processes, unlike the built-in string hash).
        rng = random.Random(zlib.crc32(f"{trace.name}:{radix_size}".encode()))
        guard = 0
        while len(prefixes) < radix_size and guard < radix_size * 100:
            guard += 1
            candidate = rng.randrange(0, 1 << 32) & _PREFIX_MASK
            if candidate not in seen:
                seen[candidate] = None
                prefixes.append(candidate)

        routes = []
        for i, prefix in enumerate(prefixes):
            next_hop = 0x0A00_0001 + (i % 8)  # one of 8 gateways
            metric = 1 + (i % 4)
            routes.append((prefix, next_hop, metric))
        return routes

    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> None:
        """Route one packet: cache scan, then radix-tree lookup on miss."""
        key = packet.dst_ip & _PREFIX_MASK
        self.stats.bump("routed")

        hit = self._cache.find_key(_ENTRY_KEY, key)
        if hit is not None:
            pos, entry = hit
            self.stats.bump("cache_hits")
            # refresh the entry's use counter (rtentry statistics)
            self._cache.set(pos, (entry[0], entry[1], entry[2] + 1))
            return

        route = self._tree.lookup(key)
        if route is None:
            self.stats.bump("default_routed")
            return

        next_hop, metric = route
        self.stats.bump("tree_hits")
        self._cache.insert(0, (key, next_hop, metric))
        if len(self._cache) > self._cache_cap:
            self._cache.pop_back()
            self.stats.bump("cache_evictions")
