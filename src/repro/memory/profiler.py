"""Aggregation of pool counters into the paper's four metrics.

One :class:`MemoryProfiler` is created per simulation.  Applications ask
it for memory pools (one per dominant data structure), charge per-packet
CPU overhead through it, and at the end of the run the exploration engine
reads off a single :class:`~repro.core.metrics.MetricVector`.

During the run nothing is priced.  Every allocator call counts on its
pool as it happens; every other DDT event counts once per data organisation
on the structure that charged it, and a pool's counters (word accesses,
DDT calls, loop steps, compares) are derived from those counts by each
DDT's fixed per-event charges when the pool is read (see
:mod:`repro.ddt.base`).  :meth:`MemoryProfiler.parts` reads every pool
and prices its counters once: energy and memory cycles at the pool's
peak footprint, CPU cycles by the run's
:class:`~repro.memory.timing.OperationCosts`, and seconds at the
:class:`~repro.memory.cacti.CactiModel` clock.  So a run's metrics split
exactly into :class:`ProfileParts`: the app-level base cycles plus one
:class:`PoolPart` per pool.  Because the paper gives every dominant
structure its own memory, a pool's part depends only on the DDT of its
structure -- which is what lets the exploration engine compose a DDT
combination's metrics from other runs' parts.  Pools are keyed by
(structure, DDT), so one run whose structures charge several DDTs side
by side (lanes, see :mod:`repro.ddt.base`) holds a part for each, and
:meth:`ProfileParts.select` picks one combination's parts out of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.metrics import MetricVector
from repro.memory.cacti import CactiModel
from repro.memory.pools import MemoryPool
from repro.memory.timing import OperationCosts

__all__ = ["MemoryProfiler", "PoolPart", "ProfileParts"]


@dataclass(frozen=True)
class PoolPart:
    """One pool's share of a simulation's four metrics.

    ``name`` is the structure, ``ddt`` the DDT that charged the pool
    (empty for a pool no DDT was named for).
    """

    name: str
    ddt: str
    energy_pj: float
    memory_cycles: int
    cpu_cycles: int
    accesses: int
    footprint_bytes: int


@dataclass(frozen=True)
class ProfileParts:
    """A simulation's metrics, split per pool.

    ``base_cycles`` are the instruction-stream cycles charged outside any
    pool (the per-packet overhead); ``pools`` are in pool creation order.
    :meth:`metrics` is the one aggregation every metric snapshot goes
    through, so metrics rebuilt from stored parts equal the simulated
    ones bit for bit.  It sums every pool, so on a run with several
    lanes per structure it applies to what :meth:`select` returns.
    """

    base_cycles: int
    clock_hz: float
    pools: tuple[PoolPart, ...]

    def select(self, assignment: Mapping[str, str]) -> ProfileParts:
        """The parts of one DDT combination, in pool order.

        Keeps each structure's part under the DDT ``assignment`` gives
        it, and the pools of structures it does not name; a structure
        with no part under its assigned DDT is a :class:`KeyError`.
        """
        chosen = tuple(
            part
            for part in self.pools
            if assignment.get(part.name, part.ddt) == part.ddt
        )
        if len(chosen) != len({part.name for part in self.pools}):
            raise KeyError("a structure has no part under its assigned DDT")
        return ProfileParts(self.base_cycles, self.clock_hz, chosen)

    def metrics(self) -> MetricVector:
        """The four metrics: pool sums plus the base cycles."""
        energy_pj = 0.0
        memory_cycles = 0
        cpu_cycles = self.base_cycles
        accesses = 0
        footprint = 0
        for part in self.pools:
            energy_pj += part.energy_pj
            memory_cycles += part.memory_cycles
            cpu_cycles += part.cpu_cycles
            accesses += part.accesses
            footprint += part.footprint_bytes
        return MetricVector(
            energy_mj=energy_pj * 1e-9,
            time_s=(cpu_cycles + memory_cycles) / self.clock_hz,
            accesses=accesses,
            footprint_bytes=footprint,
        )


class MemoryProfiler:
    """Per-simulation metric accounting.

    Parameters
    ----------
    cacti:
        Energy/latency model; a fresh default :class:`CactiModel` when
        omitted.  Its ``clock_hz`` is the run's one clock: it converts
        access times to memory cycles and cycles to seconds.
    costs:
        CPU operation cost table that prices the counted events;
        the default :class:`OperationCosts` when omitted.

    Example
    -------
    >>> profiler = MemoryProfiler()
    >>> pool = profiler.new_pool("rtentry")
    >>> pool.allocate(48)
    >>> pool.dep_writes += 12
    >>> profiler.metrics().accesses > 0
    True
    """

    def __init__(
        self,
        cacti: CactiModel | None = None,
        costs: OperationCosts | None = None,
    ) -> None:
        self.cacti = cacti if cacti is not None else CactiModel()
        self.costs = costs if costs is not None else OperationCosts()
        #: Instruction-stream cycles charged outside any pool.
        self.base_cycles = 0
        self._pools: dict[tuple[str, str], MemoryPool] = {}

    # ------------------------------------------------------------------
    # pool management
    # ------------------------------------------------------------------
    def new_pool(self, name: str, ddt: str = "") -> MemoryPool:
        """Create (or return the existing) pool of structure ``name``
        charged by DDT ``ddt``."""
        existing = self._pools.get((name, ddt))
        if existing is not None:
            return existing
        pool = MemoryPool(name, cacti=self.cacti)
        self._pools[(name, ddt)] = pool
        return pool

    def pool(self, name: str) -> MemoryPool:
        """Look the first pool of structure ``name`` up -- on a run with
        lanes, the first lane's (KeyError if absent)."""
        for (pool_name, _ddt), pool in self._pools.items():
            if pool_name == name:
                return pool
        raise KeyError(name)

    @property
    def pools(self) -> tuple[MemoryPool, ...]:
        """All pools, in creation order."""
        return tuple(self._pools.values())

    # ------------------------------------------------------------------
    # CPU-side charging
    # ------------------------------------------------------------------
    def charge_packets(self, count: int) -> None:
        """Charge the fixed per-packet application overhead for ``count``
        packets in one call, so the per-packet loop of
        :meth:`repro.apps.base.NetworkApplication.run` does not pay a
        method call per packet for a constant charge.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        self.base_cycles += count * self.costs.packet_overhead

    def charge_cpu(self, cycles: int) -> None:
        """Charge arbitrary instruction-stream cycles."""
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        self.base_cycles += cycles

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def parts(self) -> ProfileParts:
        """The metrics so far, split into base cycles and per-pool parts.

        This is where every pool's counters are folded in from their
        structures and priced: energy and memory latency at the pool's
        provisioned (peak) capacity -- one spec lookup per pool covers
        both -- and CPU cycles by :attr:`costs`.  The counts are plain
        integer sums, so the split is cheap to take and consistent no
        matter when it is taken.
        """
        pools = []
        for (_name, ddt), pool in self._pools.items():
            energy_pj, memory_cycles = pool.energy_and_cycles()
            pools.append(
                PoolPart(
                    name=pool.name,
                    ddt=ddt,
                    energy_pj=energy_pj,
                    memory_cycles=memory_cycles,
                    cpu_cycles=pool.cpu_cycles(self.costs),
                    accesses=pool.accesses,
                    footprint_bytes=pool.footprint_bytes,
                )
            )
        return ProfileParts(
            base_cycles=self.base_cycles,
            clock_hz=self.cacti.clock_hz,
            pools=tuple(pools),
        )

    def metrics(self) -> MetricVector:
        """Snapshot the four metrics accumulated so far (of a run with
        one lane per structure)."""
        return self.parts().metrics()
