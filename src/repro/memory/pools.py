"""Per-data-structure memory pools.

Each dominant dynamic data structure of an application owns one
:class:`MemoryPool`.  The pool combines three responsibilities:

* it owns an :class:`~repro.memory.allocator.Allocator`, so footprint is
  tracked per structure (the paper assumes each DDT lives in its own
  memory, which is what makes the CACTI energy model applicable per
  structure);
* it counts cost *events* as plain integers: word accesses in four
  kinds -- dependent reads/writes (pointer chasing: the next address
  waits on the previous access) and streaming reads/writes (bursts:
  shifts, copies, sequential scans) -- plus the CPU-side events of its
  structure (DDT calls, loop steps, key compares, allocator calls).
  The DDT cost hooks add to these counters directly, so a charged
  operation does integer bumps only;
* every metric is priced *post hoc* from the counters: energy and
  memory latency at the pool's **peak** footprint (the platform
  provisions each structure's SRAM for its worst case, so every access
  of the run pays the energy/latency of that provisioned capacity --
  the paper's memory-sizing assumption, and what couples the footprint
  metric to the energy metric), CPU cycles by the run's
  :class:`~repro.memory.timing.OperationCosts`.  Integer sums do not
  depend on the order of the events, so pricing once equals pricing
  every event as it happens.

The capacity-dependence of per-access cost is the mechanism behind the
paper's main effect: footprint-lean DDTs (arrays) pay less per access
than pointer-rich ones (linked lists), and the gap widens with the
amount of stored data.
"""

from __future__ import annotations

from repro.memory.allocator import Allocator, Block
from repro.memory.cacti import CactiModel
from repro.memory.timing import OperationCosts

__all__ = ["MemoryPool"]

#: Per-block header bytes of every pool's :class:`Allocator`.
HEADER_BYTES = 8
#: Payload alignment of every pool's :class:`Allocator`.
ALIGNMENT = 8
#: Words of allocator metadata touched per allocate/free call (free-list
#: head read + header write + link write for a classic free-list
#: ``malloc``).
ALLOCATOR_TOUCH_WORDS = 3
#: Cycle cost of a streaming word access relative to a dependent one.
#: Burst/sequential accesses (array shifts, scans, record copies)
#: pipeline through a wide memory port; dependent accesses (pointer
#: hops) pay the full latency before the next address is known.
STREAM_CYCLE_FRACTION = 0.125


class MemoryPool:
    """Footprint-aware cost-event accounting for one data structure.

    Parameters
    ----------
    name:
        Pool label -- by convention the dominant structure's name
        (``"radix_node"``, ``"rtentry"``...).
    cacti:
        The energy/latency model shared by all pools of a simulation.

    The eight counters are public and only ever grow: ``dep_reads``,
    ``dep_writes``, ``stream_reads`` and ``stream_writes`` count word
    accesses; ``ddt_calls``, ``steps``, ``compares`` and
    ``allocator_calls`` count the CPU-side events :meth:`cpu_cycles`
    prices.
    """

    def __init__(self, name: str, cacti: CactiModel) -> None:
        self.name = name
        self.cacti = cacti
        self.allocator = Allocator(header_bytes=HEADER_BYTES, alignment=ALIGNMENT)
        self.dep_reads = 0
        self.dep_writes = 0
        self.stream_reads = 0
        self.stream_writes = 0
        self.ddt_calls = 0
        self.steps = 0
        self.compares = 0
        self.allocator_calls = 0
        self._spec_cache: tuple[int, object] | None = None

    # ------------------------------------------------------------------
    # capacity / counters
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        """Live bytes currently owned by this pool's allocator."""
        return self.allocator.live_bytes

    @property
    def footprint_bytes(self) -> int:
        """Peak live bytes -- the pool's contribution to the footprint metric."""
        return self.allocator.peak_bytes

    @property
    def reads(self) -> int:
        """Total word reads (dependent + streaming)."""
        return self.dep_reads + self.stream_reads

    @property
    def writes(self) -> int:
        """Total word writes (dependent + streaming)."""
        return self.dep_writes + self.stream_writes

    @property
    def accesses(self) -> int:
        """Total modelled word accesses (reads + writes)."""
        return self.reads + self.writes

    # ------------------------------------------------------------------
    # post-hoc pricing
    # ------------------------------------------------------------------
    def cpu_cycles(self, costs: OperationCosts) -> int:
        """Instruction-stream cycles of the counted CPU-side events."""
        return (
            self.ddt_calls * costs.ddt_call
            + self.steps * costs.step
            + self.compares * costs.compare
            + self.allocator_calls * costs.allocator_call
        )

    def _provisioned_spec(self):
        # Memoised on the allocator's peak: the peak only ever grows, so
        # metric reads between allocations (every simulation reads all of
        # energy, cycles and footprint at least once) skip the CACTI
        # quantise-and-lookup walk entirely.
        peak = self.allocator.peak_bytes
        cached = self._spec_cache
        if cached is None or cached[0] != peak:
            cached = (peak, self.cacti.characteristics(peak))
            self._spec_cache = cached
        return cached[1]

    def energy_and_cycles(self) -> tuple[float, int]:
        """(energy in pJ, memory latency cycles) from one spec lookup."""
        spec = self._provisioned_spec()
        energy = (
            self.reads * spec.read_energy_pj + self.writes * spec.write_energy_pj
        )
        dependent = (self.dep_reads + self.dep_writes) * spec.cycles_per_access
        streamed = (self.stream_reads + self.stream_writes) * spec.cycles_per_access
        cycles = dependent + round(streamed * STREAM_CYCLE_FRACTION)
        return energy, cycles

    @property
    def energy_pj(self) -> float:
        """Dissipated energy at the provisioned (peak) capacity."""
        return self.energy_and_cycles()[0]

    @property
    def memory_cycles(self) -> int:
        """Memory latency cycles at the provisioned (peak) capacity."""
        return self.energy_and_cycles()[1]

    # ------------------------------------------------------------------
    # allocation (footprint + bookkeeping): every allocator call reads
    # the free-list head, then writes the header and the list head
    # ------------------------------------------------------------------
    def allocate(self, payload_bytes: int) -> Block:
        """Allocate from the pool's heap, counting allocator bookkeeping."""
        block = self.allocator.allocate(payload_bytes)
        self.allocator_calls += 1
        self.dep_reads += 1
        self.dep_writes += ALLOCATOR_TOUCH_WORDS - 1
        return block

    def free(self, block: Block) -> None:
        """Return a block to the pool's heap, counting bookkeeping."""
        self.allocator.free(block)
        self.allocator_calls += 1
        self.dep_reads += 1
        self.dep_writes += ALLOCATOR_TOUCH_WORDS - 1

    def reallocate(self, block: Block, payload_bytes: int) -> Block:
        """Resize a block (bookkeeping only; the caller counts the copy)."""
        resized = self.allocator.reallocate(block, payload_bytes)
        self.allocator_calls += 1
        self.dep_reads += 1
        self.dep_writes += ALLOCATOR_TOUCH_WORDS - 1
        return resized

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Return the pool's counters for logging."""
        energy_pj, memory_cycles = self.energy_and_cycles()
        return {
            "name": self.name,
            "reads": self.reads,
            "writes": self.writes,
            "dep_reads": self.dep_reads,
            "dep_writes": self.dep_writes,
            "stream_reads": self.stream_reads,
            "stream_writes": self.stream_writes,
            "ddt_calls": self.ddt_calls,
            "steps": self.steps,
            "compares": self.compares,
            "allocator_calls": self.allocator_calls,
            "energy_pj": energy_pj,
            "memory_cycles": memory_cycles,
            "live_bytes": self.live_bytes,
            "footprint_bytes": self.footprint_bytes,
        }
