"""Aggregation of pool counters into the paper's four metrics.

One :class:`MemoryProfiler` is created per simulation.  Applications ask
it for memory pools (one per dominant data structure), charge per-packet
CPU overhead through it, and at the end of the run the exploration engine
reads off a single :class:`~repro.core.metrics.MetricVector`.

Every pool keeps its own CPU-cycle counter, so a run's metrics split
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
from repro.memory.timing import CpuModel, OperationCosts

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
        omitted.
    cpu:
        Cycle accumulator; constructed from ``clock_hz``/``costs`` when
        omitted.
    clock_hz / costs:
        Convenience parameters used only when ``cpu`` is omitted.

    Example
    -------
    >>> profiler = MemoryProfiler()
    >>> pool = profiler.new_pool("rtentry")
    >>> block = pool.allocate(48)
    >>> pool.write(12)
    >>> profiler.metrics().accesses > 0
    True
    """

    def __init__(
        self,
        cacti: CactiModel | None = None,
        cpu: CpuModel | None = None,
        clock_hz: float | None = None,
        costs: OperationCosts | None = None,
    ) -> None:
        self.cacti = cacti if cacti is not None else CactiModel()
        if cpu is not None:
            self.cpu = cpu
        else:
            self.cpu = CpuModel(
                clock_hz=clock_hz if clock_hz is not None else CpuModel.DEFAULT_CLOCK_HZ,
                costs=costs,
            )
        self._pools: dict[tuple[str, str], MemoryPool] = {}

    # ------------------------------------------------------------------
    # pool management
    # ------------------------------------------------------------------
    def new_pool(self, name: str, ddt: str = "", **pool_kwargs: int) -> MemoryPool:
        """Create (or return the existing) pool of structure ``name``
        charged by DDT ``ddt``."""
        existing = self._pools.get((name, ddt))
        if existing is not None:
            return existing
        cpu = CpuModel(clock_hz=self.cpu.clock_hz, costs=self.cpu.costs)
        pool = MemoryPool(name, cacti=self.cacti, cpu=cpu, **pool_kwargs)
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
    def charge_packet_overhead(self) -> None:
        """Charge the fixed per-packet application overhead."""
        self.cpu.charge_cpu(self.cpu.costs.packet_overhead)

    def charge_packets(self, count: int) -> None:
        """Charge the fixed overhead for ``count`` packets in one call.

        Identical totals to ``count`` individual
        :meth:`charge_packet_overhead` calls -- the batch form exists so
        the per-packet loop of :meth:`repro.apps.base.NetworkApplication.run`
        does not pay a method call per packet for a constant charge.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        self.cpu.charge_cpu(count * self.cpu.costs.packet_overhead)

    def charge_cpu(self, cycles: int) -> None:
        """Charge arbitrary instruction-stream cycles."""
        self.cpu.charge_cpu(cycles)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def parts(self) -> ProfileParts:
        """The metrics so far, split into base cycles and per-pool parts.

        Energy and memory latency are evaluated at each pool's
        provisioned (peak) capacity -- one spec lookup per pool covers
        both -- so the split is cheap to take and consistent no matter
        when it is taken.
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
                    cpu_cycles=pool.cpu.cpu_cycles,
                    accesses=pool.accesses,
                    footprint_bytes=pool.footprint_bytes,
                )
            )
        return ProfileParts(
            base_cycles=self.cpu.cpu_cycles,
            clock_hz=self.cpu.clock_hz,
            pools=tuple(pools),
        )

    def metrics(self) -> MetricVector:
        """Snapshot the four metrics accumulated so far (of a run with
        one lane per structure)."""
        return self.parts().metrics()

    def pool_snapshots(self) -> list[dict[str, float]]:
        """Per-pool counters, for the detailed simulation logs."""
        return [p.snapshot() for p in self._pools.values()]
