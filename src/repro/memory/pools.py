"""Per-data-structure memory pools.

Each dominant dynamic data structure of an application owns one
:class:`MemoryPool`.  The pool combines three responsibilities:

* it owns an :class:`~repro.memory.allocator.Allocator`, so footprint is
  tracked per structure (the paper assumes each DDT lives in its own
  memory, which is what makes the CACTI energy model applicable per
  structure);
* it counts word accesses in four kinds -- dependent reads/writes
  (pointer chasing: the next address waits on the previous access) and
  streaming reads/writes (bursts: shifts, copies, sequential scans);
* energy and memory latency are derived *post hoc* from the counters and
  the pool's **peak** footprint: the platform provisions each
  structure's SRAM for its worst case, so every access of the run pays
  the energy/latency of that provisioned capacity.  This is the paper's
  memory-sizing assumption, and it is what couples the footprint metric
  to the energy metric.

The capacity-dependence of per-access cost is the mechanism behind the
paper's main effect: footprint-lean DDTs (arrays) pay less per access
than pointer-rich ones (linked lists), and the gap widens with the
amount of stored data.
"""

from __future__ import annotations

from repro.memory.allocator import Allocator, Block
from repro.memory.cacti import CactiModel
from repro.memory.timing import CpuModel

__all__ = ["MemoryPool"]


class MemoryPool:
    """Footprint-aware access-cost accounting for one data structure.

    Parameters
    ----------
    name:
        Pool label -- by convention the dominant structure's name
        (``"radix_node"``, ``"rtentry"``...).
    cacti:
        The energy/latency model shared by all pools of a simulation.
    cpu:
        The pool's own cycle accumulator: the instruction-stream cycles
        its structure charges (memory cycles are derived from the pool
        counters).
    header_bytes / alignment:
        Forwarded to the pool's :class:`Allocator`.
    allocator_touch_words:
        Words of allocator metadata touched per allocate/free call
        (free-list head read + header write + link write for a classic
        free-list ``malloc``).
    stream_cycle_fraction:
        Cycle cost of a streaming word access relative to a dependent
        one (see :data:`STREAM_CYCLE_FRACTION`).
    """

    #: Cycle cost of a streaming word access relative to a dependent one.
    #: Burst/sequential accesses (array shifts, scans, record copies)
    #: pipeline through a wide memory port; dependent accesses (pointer
    #: hops) pay the full latency before the next address is known.
    STREAM_CYCLE_FRACTION = 0.125

    def __init__(
        self,
        name: str,
        cacti: CactiModel,
        cpu: CpuModel,
        header_bytes: int = 8,
        alignment: int = 8,
        allocator_touch_words: int = 3,
        stream_cycle_fraction: float | None = None,
    ) -> None:
        self.name = name
        self.cacti = cacti
        self.cpu = cpu
        self.allocator = Allocator(header_bytes=header_bytes, alignment=alignment)
        self.allocator_touch_words = allocator_touch_words
        self.stream_cycle_fraction = (
            stream_cycle_fraction
            if stream_cycle_fraction is not None
            else self.STREAM_CYCLE_FRACTION
        )
        if not 0.0 < self.stream_cycle_fraction <= 1.0:
            raise ValueError("stream_cycle_fraction must be in (0, 1]")
        self.dep_reads = 0
        self.dep_writes = 0
        self.stream_reads = 0
        self.stream_writes = 0
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
    # access counting (hot path: pure counter bumps)
    # ------------------------------------------------------------------
    def read(self, words: int = 1) -> None:
        """Count dependent word-reads (pointer chasing: full latency)."""
        if words > 0:
            self.dep_reads += words

    def write(self, words: int = 1) -> None:
        """Count dependent word-writes (full latency per word)."""
        if words > 0:
            self.dep_writes += words

    def read_stream(self, words: int = 1) -> None:
        """Count streaming word-reads (bursts: same energy, fewer cycles)."""
        if words > 0:
            self.stream_reads += words

    def write_stream(self, words: int = 1) -> None:
        """Count streaming word-writes (bursts: same energy, fewer cycles)."""
        if words > 0:
            self.stream_writes += words

    # ------------------------------------------------------------------
    # post-hoc energy / latency (provisioned for the peak footprint)
    # ------------------------------------------------------------------
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
        cycles = dependent + round(streamed * self.stream_cycle_fraction)
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
    # allocation (footprint + bookkeeping accesses)
    # ------------------------------------------------------------------
    def allocate(self, payload_bytes: int) -> Block:
        """Allocate from the pool's heap, charging allocator bookkeeping."""
        block = self.allocator.allocate(payload_bytes)
        self.cpu.charge_cpu(self.cpu.costs.allocator_call)
        # Free-list pop: one read of the list head, one header write, one
        # list-head update.
        self.read(1)
        self.write(self.allocator_touch_words - 1)
        return block

    def free(self, block: Block) -> None:
        """Return a block to the pool's heap, charging bookkeeping."""
        self.allocator.free(block)
        self.cpu.charge_cpu(self.cpu.costs.allocator_call)
        self.read(1)
        self.write(self.allocator_touch_words - 1)

    def reallocate(self, block: Block, payload_bytes: int) -> Block:
        """Resize a block (bookkeeping only; the caller charges the copy)."""
        resized = self.allocator.reallocate(block, payload_bytes)
        self.cpu.charge_cpu(self.cpu.costs.allocator_call)
        self.read(1)
        self.write(self.allocator_touch_words - 1)
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
            "energy_pj": energy_pj,
            "memory_cycles": memory_cycles,
            "live_bytes": self.live_bytes,
            "footprint_bytes": self.footprint_bytes,
        }
