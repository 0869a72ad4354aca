"""Application interface of the exploration engine.

A network application declares its *dominant dynamic data structures*
(the ones profiling found to be accessed the most -- step 1 of the
methodology) and processes trace packets through DDT instances resolved
from a per-structure assignment.  Swapping the assignment never changes
functional behaviour -- only the cost metrics -- which is the invariant
the whole methodology rests on (and which the test suite asserts).

An assignment may give a structure several DDTs (lanes): every
structure :meth:`NetworkApplication.make_structure` returns is then one
object that charges each of them side by side, each lane to its own
(structure, DDT) pool, so one run prices them all.  The app is not
handed its assignment -- ``make_structure`` is its only way to a DDT --
so an app-level charge has no assignment to depend on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, Iterable, Mapping, Sequence

from repro.ddt.base import DynamicDataType, Lane
from repro.ddt.records import RecordSpec
from repro.ddt.registry import ddt_class, lane_names
from repro.memory.profiler import MemoryProfiler
from repro.net.config import NetworkConfig
from repro.net.packet import Packet
from repro.net.trace import Trace

__all__ = ["AppStats", "NetworkApplication"]


class AppStats(dict):
    """Functional output counters of one application run.

    A plain ``dict`` subclass with a convenience ``bump``; equality is
    dict equality, which the equivalence tests rely on: two runs of the
    same app on the same trace must produce equal stats regardless of
    the DDT assignment.
    """

    def bump(self, key: str, amount: int = 1) -> None:
        """Increment a counter, creating it at zero if absent."""
        self[key] = self.get(key, 0) + amount


class NetworkApplication(ABC):
    """Base class of the four benchmark applications.

    Parameters
    ----------
    config:
        The network configuration (trace + application parameters).
    assignment:
        Mapping of dominant structure name to DDT name, e.g.
        ``{"radix_node": "AR", "rtentry": "DLL"}``, or to a tuple of
        DDT names to charge side by side (see :func:`lane_names`).  Must
        cover exactly :attr:`dominant_structures`.
    profiler:
        The per-simulation metric accumulator.

    Class attributes
    ----------------
    name:
        Application name used in logs (``"Route"``...).
    dominant_structures:
        Names of the dominant dynamic data structures, in canonical
        order (defines combination-label order too).
    record_specs:
        One :class:`RecordSpec` per dominant structure.
    param_defaults:
        Every application parameter the app reads (:meth:`param`), with
        its default; a configuration may set these and no others
        (:meth:`check_params`).
    """

    name: ClassVar[str] = ""
    dominant_structures: ClassVar[tuple[str, ...]] = ()
    record_specs: ClassVar[Mapping[str, RecordSpec]] = {}
    param_defaults: ClassVar[Mapping[str, Any]] = {}

    @classmethod
    def check_params(cls, names: Iterable[str]) -> None:
        """Refuse, with a :class:`ValueError`, a parameter name the app
        does not read: it would label configurations that simulate alike."""
        for key in names:
            if key not in cls.param_defaults:
                known = ", ".join(sorted(cls.param_defaults)) or "none"
                raise ValueError(
                    f"{cls.name} reads no parameter {key!r} (known: {known})"
                )

    def __init__(
        self,
        config: NetworkConfig,
        assignment: Mapping[str, str | Sequence[str]],
        profiler: MemoryProfiler,
    ) -> None:
        expected = set(self.dominant_structures)
        provided = set(assignment)
        if expected != provided:
            raise ValueError(
                f"{self.name}: assignment must cover {sorted(expected)}, "
                f"got {sorted(provided)}"
            )
        self.config = config
        self._ddts = {
            structure: tuple(ddt_class(name) for name in names)
            for structure, names in lane_names(assignment).items()
        }
        #: Each structure's ``(DDT class, pool)`` lanes, from its first
        #: :meth:`make_structure` call on (which creates the pools).
        self._lanes: dict[str, tuple[Lane, ...]] = {}
        self.profiler = profiler
        self.stats = AppStats()
        self._trace: Trace | None = None

    # ------------------------------------------------------------------
    # DDT instantiation
    # ------------------------------------------------------------------
    def make_structure(self, structure: str) -> DynamicDataType:
        """Instantiate the assigned DDT(s) for a dominant structure.

        May be called repeatedly for the same structure name (e.g. one
        packet queue per flow); all instances share the structure's
        memory pool per DDT, so their costs aggregate under one name.
        With several DDTs assigned, the instance charges each of them
        as a lane, every lane to its own (structure, DDT) pool.
        """
        if structure not in self._ddts:
            raise KeyError(f"{self.name}: {structure!r} is not a dominant structure")
        lanes = self._lanes.get(structure)
        if lanes is None:
            lanes = self._lanes[structure] = tuple(
                (ddt, self.profiler.new_pool(structure, ddt.ddt_name))
                for ddt in self._ddts[structure]
            )
        return DynamicDataType.with_lanes(self.record_specs[structure], lanes)

    def param(self, name: str) -> Any:
        """The configuration's value of parameter ``name``, else its
        default from :attr:`param_defaults`."""
        return self.config.param(name, self.param_defaults[name])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def trace(self) -> Trace:
        """The trace being processed (generated on demand before run())."""
        if self._trace is None:
            self._trace = self.config.load_trace()
        return self._trace

    @abstractmethod
    def setup(self) -> None:
        """Build the application's tables before the first packet."""

    @abstractmethod
    def process(self, packet: Packet) -> None:
        """Handle one trace packet."""

    def finish(self) -> None:
        """Optional post-trace work (flush queues, expire state)."""

    def run(self, trace: Trace) -> AppStats:
        """Process a whole trace and return the functional stats.

        The fixed per-packet overhead is a constant, so it is charged in
        one batch up front (same total cycles as charging inside the
        loop) and the hot loop only runs :meth:`process`.
        """
        self._trace = trace
        self.setup()
        self.profiler.charge_packets(len(trace))
        process = self.process
        for packet in trace:
            process(packet)
        self.finish()
        self.stats.setdefault("packets", len(trace))
        return self.stats
