"""Simulated heap allocator used to derive memory-footprint figures.

The paper's DDT library runs on top of a dynamic memory manager; the
*memory footprint* metric it reports includes the allocator's own overhead
(block headers, alignment slack, free-list slack).  This module models a
conventional size-class ("segregated free list") allocator:

* every live block carries a fixed header (:attr:`Allocator.header_bytes`);
* payloads are rounded up to the allocator alignment;
* freed blocks go to a per-size-class free list and are reused by later
  allocations of the same class (first fit within the class);
* the heap grows monotonically -- freed memory is recycled but never
  returned to the platform, matching the behaviour of embedded heap
  managers and making *peak footprint* the meaningful figure.

The allocator works in a virtual address space: returned addresses are
real integers (useful for debugging and property tests) but no payload
bytes are stored here -- values live inside the DDT objects themselves.

Example
-------
>>> heap = Allocator()
>>> block = heap.allocate(100)
>>> heap.live_bytes >= 100
True
>>> heap.free(block)
>>> heap.live_bytes
0
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["AllocationError", "Block", "AllocatorStats", "Allocator"]


class AllocationError(RuntimeError):
    """Raised on invalid allocator usage (double free, foreign block...)."""


class Block(NamedTuple):
    """Handle of one live heap block (an immutable tuple).

    Attributes
    ----------
    address:
        Virtual start address of the payload.
    payload_bytes:
        The size the caller asked for.
    stored_bytes:
        Payload rounded up to the alignment (the reusable size class).
    """

    address: int
    payload_bytes: int
    stored_bytes: int


#: Builds a :class:`Block` from a field tuple without the keyword-parsing
#: ``__new__`` of a named tuple (a block is made on every allocation).
_new_block = tuple.__new__


@dataclass
class AllocatorStats:
    """Cumulative counters of one :class:`Allocator` instance."""

    allocations: int = 0
    frees: int = 0
    reused_blocks: int = 0
    live_bytes: int = 0
    peak_bytes: int = 0
    heap_top: int = 0
    requested_bytes: int = 0
    free_list_bytes: int = 0

    def snapshot(self) -> dict[str, int]:
        """Return the counters as a plain dictionary (for logs)."""
        return {
            "allocations": self.allocations,
            "frees": self.frees,
            "reused_blocks": self.reused_blocks,
            "live_bytes": self.live_bytes,
            "peak_bytes": self.peak_bytes,
            "heap_top": self.heap_top,
            "requested_bytes": self.requested_bytes,
            "free_list_bytes": self.free_list_bytes,
        }


class Allocator:
    """Size-class free-list heap model.

    Parameters
    ----------
    header_bytes:
        Per-block bookkeeping overhead (size + status word of a classic
        ``malloc``); charged to the footprint of every live block.
    alignment:
        Payload sizes are rounded up to a multiple of this.
    base_address:
        Virtual address of the first block (cosmetic).

    Notes
    -----
    ``live_bytes`` counts header + aligned payload of live blocks.
    ``peak_bytes`` is the high-water mark of ``live_bytes`` and is the
    figure the methodology reports as *memory footprint* (free-list slack
    is recycled storage, still owned by the process, and is reported
    separately via ``stats.free_list_bytes``).
    """

    def __init__(
        self,
        header_bytes: int = 8,
        alignment: int = 8,
        base_address: int = 0x1000_0000,
    ) -> None:
        if header_bytes < 0:
            raise ValueError("header_bytes must be >= 0")
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a positive power of two")
        self.header_bytes = header_bytes
        self.alignment = alignment
        self._mask = alignment - 1
        self.stats = AllocatorStats()
        self._free_lists: defaultdict[int, list[int]] = defaultdict(list)
        self._live: dict[int, Block] = {}
        self._next_address = base_address

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        """Bytes currently owned by live blocks (header + aligned payload)."""
        return self.stats.live_bytes

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`live_bytes` -- the footprint metric."""
        return self.stats.peak_bytes

    @property
    def live_blocks(self) -> int:
        """Number of currently live blocks."""
        return len(self._live)

    def aligned_size(self, payload_bytes: int) -> int:
        """Round a payload size up to the allocator alignment."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        mask = self._mask
        return (payload_bytes + mask) & ~mask

    def gross_size(self, payload_bytes: int) -> int:
        """Footprint charge of a block with the given payload."""
        return self.header_bytes + self.aligned_size(payload_bytes)

    # ------------------------------------------------------------------
    # allocation interface
    # ------------------------------------------------------------------
    def allocate(self, payload_bytes: int) -> Block:
        """Allocate a block; returns its :class:`Block` handle.

        Reuses a freed block of the same size class when one is available,
        otherwise extends the heap.
        """
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        mask = self._mask
        stored = (payload_bytes + mask) & ~mask
        gross = self.header_bytes + stored
        stats = self.stats
        free_list = self._free_lists.get(stored)
        if free_list:
            address = free_list.pop()
            stats.reused_blocks += 1
            stats.free_list_bytes -= gross
        else:
            address = self._next_address + self.header_bytes
            self._next_address += gross
            stats.heap_top = self._next_address
        block = _new_block(Block, (address, payload_bytes, stored))
        self._live[address] = block
        stats.allocations += 1
        stats.requested_bytes += payload_bytes
        live = stats.live_bytes + gross
        stats.live_bytes = live
        if live > stats.peak_bytes:
            stats.peak_bytes = live
        return block

    def free(self, block: Block) -> None:
        """Return a block to its size-class free list.

        Raises
        ------
        AllocationError
            If the block is not currently live (double free or foreign
            handle).  A refused free leaves the heap as it was.
        """
        address, _, stored = block
        live = self._live.pop(address, None)
        if live is None or live.stored_bytes != stored:
            if live is not None:
                self._live[address] = live
            raise AllocationError(
                f"free of non-live block at 0x{address:x} ({stored} bytes)"
            )
        self._free_lists[stored].append(address)
        gross = self.header_bytes + stored
        stats = self.stats
        stats.frees += 1
        stats.live_bytes -= gross
        stats.free_list_bytes += gross

    def reallocate(self, block: Block, payload_bytes: int) -> Block:
        """Grow/shrink a block, modelling ``realloc``.

        A same-size-class request keeps the block in place; anything else
        is a free + allocate (the data-copy cost is charged by the caller,
        who knows how many words actually move).
        """
        if self.aligned_size(payload_bytes) == block.stored_bytes:
            live = self._live.get(block.address)
            if live is None:
                raise AllocationError("reallocate of non-live block")
            resized = block._replace(payload_bytes=payload_bytes)
            self._live[block.address] = resized
            self.stats.requested_bytes += max(0, payload_bytes - block.payload_bytes)
            return resized
        self.free(block)
        return self.allocate(payload_bytes)
