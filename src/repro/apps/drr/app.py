"""DRR -- Deficit Round Robin scheduler (NetBench ``drr``).

The paper's fourth case study.  Two dominant dynamic data structures:

* ``flow_queue`` -- the active-flow list the scheduler round-robins
  over: per-packet keyed scans (classification), appends for new flows,
  removals when a flow drains, and full iterations every service round.
* ``packet_buf`` -- per-flow packet FIFOs (one DDT instance per active
  flow, all charged to one pool): append at the tail, pop from the head.
  Head-pops are where arrays pay element shifts and lists shine -- the
  trade-off that makes DRR the paper's most energy-stretched case study
  (93% energy trade-off range in Table 2).

The application-specific network parameter is the quantum -- the paper's
"Level of Fairness used in the Deficit Round Robin scheduling
application" (``quantum`` in ``config.app_params``).
"""

from __future__ import annotations

from operator import attrgetter

from repro.apps.base import NetworkApplication
from repro.ddt.base import DynamicDataType
from repro.ddt.records import RecordSpec
from repro.net.packet import Packet

__all__ = ["DrrApp"]

#: Key of a flow record (a :class:`_FlowState`).
_FLOW_KEY = attrgetter("key")


class _FlowState:
    """Per-flow scheduler state (flow record stored in ``flow_queue``)."""

    __slots__ = ("key", "deficit", "queue")

    def __init__(self, key: tuple, queue: DynamicDataType) -> None:
        self.key = key
        self.deficit = 0
        self.queue = queue


class DrrApp(NetworkApplication):
    """Deficit Round Robin over DDT flow list and packet queues.

    Application parameters (``config.app_params``):

    * ``quantum`` -- bytes added to a flow's deficit per round
      (default 1500; the paper's level-of-fairness parameter).
    * ``service_batch`` -- enqueued packets between service rounds
      (default 16; models the output link draining periodically).
    """

    name = "DRR"
    dominant_structures = ("flow_queue", "packet_buf")
    record_specs = {
        # flow entry: key, deficit counter, queue head/tail pointers.
        "flow_queue": RecordSpec("flow_queue", size_bytes=32, key_bytes=4),
        # packet descriptor: buffer pointer, length, arrival stamp.
        "packet_buf": RecordSpec("packet_buf", size_bytes=16, key_bytes=4),
    }

    param_defaults = {"quantum": 1500, "service_batch": 16}

    def setup(self) -> None:
        """Create the flow list; per-flow queues are created on demand."""
        self._flows = self.make_structure("flow_queue")
        self._quantum = int(self.param("quantum"))
        self._batch = int(self.param("service_batch"))
        if self._quantum <= 0:
            raise ValueError("quantum must be positive")
        if self._batch <= 0:
            raise ValueError("service_batch must be positive")
        self._since_service = 0

    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> None:
        """Classify and enqueue one packet; service when the batch fills."""
        key = packet.flow_key
        hit = self._flows.find_key(_FLOW_KEY, key)
        if hit is None:
            state = _FlowState(key, self.make_structure("packet_buf"))
            self._flows.append(state)
            self.stats.bump("flows_created")
        else:
            _, state = hit

        state.queue.append((packet.size_bytes, packet.timestamp))
        self.stats.bump("enqueued")

        self._since_service += 1
        if self._since_service >= self._batch:
            self._since_service = 0
            self._service_round()

    # ------------------------------------------------------------------
    def _service_round(self) -> None:
        """One DRR round: every active flow gets one quantum of credit."""
        self.stats.bump("rounds")
        # Snapshot via charged iteration (the scheduler walks the list).
        flows = list(self._flows)
        drained: list[_FlowState] = []
        for state in flows:
            state.deficit += self._quantum
            while len(state.queue) > 0:
                size, _ = state.queue.get(0)
                if size > state.deficit:
                    break
                state.queue.pop_front()
                state.deficit -= size
                self.stats.bump("dequeued")
                self.stats.bump("bytes_sent", size)
            if len(state.queue) == 0:
                drained.append(state)

        # Drained flows leave the active list and their queues die.
        for state in drained:
            found = self._flows.find(lambda flow: flow is state)
            if found is not None:
                pos, _ = found
                self._flows.remove_at(pos)
                state.queue.dispose()
                state.deficit = 0
                self.stats.bump("flows_drained")

    def finish(self) -> None:
        """Drain everything left in the queues at end of trace."""
        guard = 0
        while len(self._flows) > 0 and guard < 10_000:
            guard += 1
            self._service_round()
        self.stats["flows_active_at_end"] = len(self._flows)
