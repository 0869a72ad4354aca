"""Per-data-structure memory pools.

Each dominant dynamic data structure of an application owns one
:class:`MemoryPool`.  The pool combines three responsibilities:

* it is its structure's heap model, so footprint is tracked per
  structure (the paper assumes each DDT lives in its own memory, which
  is what makes the CACTI energy model applicable per structure).  The
  model is three integers: live bytes, their peak (the footprint) and
  live blocks.  A block costs :data:`HEADER_BYTES` plus its payload
  rounded up to :data:`ALIGNMENT` (:func:`block_bytes`), and the
  structures say how many blocks of which payload they allocate, free
  or resize -- no block handles, addresses or free lists;
* it holds eight cost-event counters: word accesses in four kinds --
  dependent reads/writes (pointer chasing: the next address waits on
  the previous access) and streaming reads/writes (bursts: shifts,
  copies, sequential scans) -- plus the CPU-side events of its
  structure (DDT calls, loop steps, key compares, allocator calls).
  Every allocator call counts here as it happens.  Everything else is
  derived: a charged DDT op only counts the events of its data
  organisation on the structure (see :mod:`repro.ddt.base`), and every
  structure attached to the pool (:meth:`MemoryPool.attach`) folds its
  pending counts in, priced by its DDT's fixed per-event charges,
  whenever a counter is read;
* every metric is priced *post hoc* from the counters: energy and
  memory latency at the pool's **peak** footprint (the platform
  provisions each structure's SRAM for its worst case, so every access
  of the run pays the energy/latency of that provisioned capacity --
  the paper's memory-sizing assumption, and what couples the footprint
  metric to the energy metric), CPU cycles by the run's
  :class:`~repro.memory.timing.OperationCosts`.  Integer sums do not
  depend on the order of the events, so pricing once equals pricing
  every event as it happens, and folding late equals counting early.

The capacity-dependence of per-access cost is the mechanism behind the
paper's main effect: footprint-lean DDTs (arrays) pay less per access
than pointer-rich ones (linked lists), and the gap widens with the
amount of stored data.

Example
-------
>>> pool = MemoryPool("rtentry", CactiModel())
>>> pool.allocate(13, count=2)  # two blocks of 8 + 16 bytes
>>> pool.free(13)
>>> pool.live_bytes, pool.footprint_bytes, pool.live_blocks
(24, 48, 1)
>>> pool.free(100)
Traceback (most recent call last):
    ...
repro.memory.pools.AllocationError: rtentry: freeing 1 block(s) of 100 bytes exceeds the live 1 block(s), 24 bytes
>>> pool.allocator_calls  # the refused free counted nothing
3
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memory.cacti import CactiModel
from repro.memory.timing import OperationCosts

if TYPE_CHECKING:  # pragma: no cover - the DDTs import this module
    from repro.ddt.base import DynamicDataType

__all__ = ["AllocationError", "MemoryPool", "block_bytes"]

#: Per-block header bytes (size + status word of a classic ``malloc``).
HEADER_BYTES = 8
#: Payload alignment in bytes (a power of two).
ALIGNMENT = 8
_ALIGN_MASK = ALIGNMENT - 1
#: Words of allocator metadata touched per allocate/free call (free-list
#: head read + header write + link write for a classic free-list
#: ``malloc``).
ALLOCATOR_TOUCH_WORDS = 3
#: Cycle cost of a streaming word access relative to a dependent one.
#: Burst/sequential accesses (array shifts, scans, record copies)
#: pipeline through a wide memory port; dependent accesses (pointer
#: hops) pay the full latency before the next address is known.
STREAM_CYCLE_FRACTION = 0.125


class AllocationError(RuntimeError):
    """A free or resize would take a pool's live bytes or live blocks
    below zero (a double free, or a block the pool never allocated)."""


def block_bytes(payload_bytes: int) -> int:
    """Footprint charge of one block: the header plus the payload rounded
    up to the alignment.

    >>> block_bytes(13), block_bytes(0)
    (24, 8)
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    return HEADER_BYTES + ((payload_bytes + _ALIGN_MASK) & ~_ALIGN_MASK)


def _counter(field: str, doc: str) -> property:
    """A public event counter: reads fold the pending counts in first,
    and an assignment sets the folded total."""

    def read(pool: MemoryPool) -> int:
        pool._fold()
        return getattr(pool, field)

    def write(pool: MemoryPool, value: int) -> None:
        pool._fold()
        setattr(pool, field, value)

    return property(read, write, doc=doc)


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
    prices.  Reading any of them, or any figure derived from them,
    first folds in the pending counts of every attached structure.
    The heap model -- :attr:`live_bytes`, :attr:`footprint_bytes` and
    :attr:`live_blocks` -- moves only through :meth:`allocate`,
    :meth:`free` and :meth:`reallocate`.
    """

    def __init__(self, name: str, cacti: CactiModel) -> None:
        self.name = name
        self.cacti = cacti
        self._live_bytes = 0
        self._peak_bytes = 0
        self._live_blocks = 0
        self._dep_reads = 0
        self._dep_writes = 0
        self._stream_reads = 0
        self._stream_writes = 0
        self._ddt_calls = 0
        self._steps = 0
        self._compares = 0
        self._allocator_calls = 0
        #: Structures whose pending counts belong to these counters.
        self._structures: dict[DynamicDataType, None] = {}
        self._spec_cache: tuple[int, object] | None = None

    dep_reads = _counter("_dep_reads", "Dependent word reads.")
    dep_writes = _counter("_dep_writes", "Dependent word writes.")
    stream_reads = _counter("_stream_reads", "Streaming word reads.")
    stream_writes = _counter("_stream_writes", "Streaming word writes.")
    ddt_calls = _counter("_ddt_calls", "Charged DDT operations.")
    steps = _counter("_steps", "Loop steps of traversals and scans.")
    compares = _counter("_compares", "Key compares of scans.")
    allocator_calls = _counter("_allocator_calls", "Allocate, free and resize calls.")

    # ------------------------------------------------------------------
    # lazily charged structures
    # ------------------------------------------------------------------
    def attach(self, structure: DynamicDataType) -> None:
        """Fold ``structure``'s pending counts in whenever a counter is read."""
        self._structures[structure] = None

    def detach(self, structure: DynamicDataType) -> None:
        """Stop folding ``structure`` (which must have folded its counts)."""
        self._structures.pop(structure, None)

    def add_counts(
        self,
        dep_reads: int,
        dep_writes: int,
        stream_reads: int,
        stream_writes: int,
        ddt_calls: int,
        steps: int,
        compares: int,
    ) -> None:
        """Add a structure's folded counts (every counter but allocator calls)."""
        self._dep_reads += dep_reads
        self._dep_writes += dep_writes
        self._stream_reads += stream_reads
        self._stream_writes += stream_writes
        self._ddt_calls += ddt_calls
        self._steps += steps
        self._compares += compares

    def _fold(self) -> None:
        for structure in self._structures:
            structure.fold_counts()

    # ------------------------------------------------------------------
    # capacity / counters
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        """Bytes of the live blocks (headers + aligned payloads)."""
        return self._live_bytes

    @property
    def footprint_bytes(self) -> int:
        """Peak live bytes -- the pool's contribution to the footprint metric."""
        return self._peak_bytes

    @property
    def live_blocks(self) -> int:
        """Number of live blocks."""
        return self._live_blocks

    @property
    def reads(self) -> int:
        """Total word reads (dependent + streaming)."""
        self._fold()
        return self._dep_reads + self._stream_reads

    @property
    def writes(self) -> int:
        """Total word writes (dependent + streaming)."""
        self._fold()
        return self._dep_writes + self._stream_writes

    @property
    def accesses(self) -> int:
        """Total modelled word accesses (reads + writes)."""
        self._fold()
        return (
            self._dep_reads + self._stream_reads + self._dep_writes + self._stream_writes
        )

    # ------------------------------------------------------------------
    # post-hoc pricing
    # ------------------------------------------------------------------
    def cpu_cycles(self, costs: OperationCosts) -> int:
        """Instruction-stream cycles of the counted CPU-side events."""
        self._fold()
        return (
            self._ddt_calls * costs.ddt_call
            + self._steps * costs.step
            + self._compares * costs.compare
            + self._allocator_calls * costs.allocator_call
        )

    def _provisioned_spec(self):
        # Memoised on the peak: the peak only ever grows, so metric reads
        # between allocations (every simulation reads all of energy,
        # cycles and footprint at least once) skip the CACTI
        # quantise-and-lookup walk entirely.
        peak = self._peak_bytes
        cached = self._spec_cache
        if cached is None or cached[0] != peak:
            cached = (peak, self.cacti.characteristics(peak))
            self._spec_cache = cached
        return cached[1]

    def energy_and_cycles(self) -> tuple[float, int]:
        """(energy in pJ, memory latency cycles) from one spec lookup."""
        spec = self._provisioned_spec()
        self._fold()
        energy = (
            (self._dep_reads + self._stream_reads) * spec.read_energy_pj
            + (self._dep_writes + self._stream_writes) * spec.write_energy_pj
        )
        dependent = (self._dep_reads + self._dep_writes) * spec.cycles_per_access
        streamed = (self._stream_reads + self._stream_writes) * spec.cycles_per_access
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
    def allocate(self, payload_bytes: int, count: int = 1) -> None:
        """Allocate ``count`` blocks of ``payload_bytes`` each, one
        allocator call per block."""
        if count < 0:
            raise ValueError("count must be >= 0")
        live = self._live_bytes + count * block_bytes(payload_bytes)
        self._live_bytes = live
        if live > self._peak_bytes:
            self._peak_bytes = live
        self._live_blocks += count
        self._allocator_calls += count
        self._dep_reads += count
        self._dep_writes += count * (ALLOCATOR_TOUCH_WORDS - 1)

    def free(self, payload_bytes: int, count: int = 1) -> None:
        """Free ``count`` blocks of ``payload_bytes`` each, one allocator
        call per block.

        Raises
        ------
        AllocationError
            If the pool holds fewer live blocks or bytes than that (a
            double free, or blocks it never allocated).  A refused free
            leaves the pool as it was.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        live = self._live_bytes - count * block_bytes(payload_bytes)
        blocks = self._live_blocks - count
        if live < 0 or blocks < 0:
            raise AllocationError(
                f"{self.name}: freeing {count} block(s) of {payload_bytes} bytes "
                f"exceeds the live {self._live_blocks} block(s), {self._live_bytes} bytes"
            )
        self._live_bytes = live
        self._live_blocks = blocks
        self._allocator_calls += count
        self._dep_reads += count
        self._dep_writes += count * (ALLOCATOR_TOUCH_WORDS - 1)

    def reallocate(self, old_payload_bytes: int, payload_bytes: int) -> None:
        """Resize one block in one allocator call, modelling ``realloc``
        (the caller counts the copy, knowing how many words move).

        Live bytes move by the new charge minus the old, and the peak is
        checked after the move.  Like :meth:`free`, a resize the live
        blocks cannot cover raises :class:`AllocationError` and leaves
        the pool as it was.
        """
        old, new = block_bytes(old_payload_bytes), block_bytes(payload_bytes)
        if self._live_blocks < 1 or self._live_bytes < old:
            raise AllocationError(
                f"{self.name}: resizing a block of {old_payload_bytes} bytes exceeds "
                f"the live {self._live_blocks} block(s), {self._live_bytes} bytes"
            )
        live = self._live_bytes - old + new
        self._live_bytes = live
        if live > self._peak_bytes:
            self._peak_bytes = live
        self._allocator_calls += 1
        self._dep_reads += 1
        self._dep_writes += ALLOCATOR_TOUCH_WORDS - 1

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Every counter, the heap model and the priced figures as one
        dict: a pool's whole observable state, for comparing pools."""
        energy_pj, memory_cycles = self.energy_and_cycles()
        return {
            "name": self.name,
            "reads": self._dep_reads + self._stream_reads,
            "writes": self._dep_writes + self._stream_writes,
            "dep_reads": self._dep_reads,
            "dep_writes": self._dep_writes,
            "stream_reads": self._stream_reads,
            "stream_writes": self._stream_writes,
            "ddt_calls": self._ddt_calls,
            "steps": self._steps,
            "compares": self._compares,
            "allocator_calls": self._allocator_calls,
            "energy_pj": energy_pj,
            "memory_cycles": memory_cycles,
            "live_bytes": self._live_bytes,
            "live_blocks": self._live_blocks,
            "footprint_bytes": self._peak_bytes,
        }
