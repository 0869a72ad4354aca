"""Array-based DDTs: ``AR`` (records inline) and ``AR(P)`` (pointer array).

These are the footprint-lean end of the library.  ``AR`` stores records
contiguously (no per-record overhead at all, O(1) positional access, but
element shifts on mid-sequence insert/remove and copy bursts on growth).
``AR(P)`` stores 4-byte pointers contiguously and each record in its own
heap block -- shifts move only pointers, at the price of one indirection
per access and per-record allocator overhead.

Access-kind modelling: array traffic is overwhelmingly *streaming*
(shifts, growth copies, sequential scans, contiguous record reads), so
it is charged at the pipelined streaming rate; only the first touch of a
randomly indexed record (and ``AR(P)``'s pointer loads) is a dependent
access.  This is what makes arrays fast *and* energy-proportional to
their word traffic.
"""

from __future__ import annotations

from repro.ddt.base import DynamicDataType
from repro.ddt.records import WORD_BYTES
from repro.memory.allocator import Block

__all__ = ["ArrayDDT", "PointerArrayDDT"]

#: Initial capacity (records) of a freshly created array.
INITIAL_CAPACITY = 4
#: Geometric growth factor on overflow.
GROWTH_FACTOR = 2


class ArrayDDT(DynamicDataType):
    """``AR`` -- dynamic array with records stored inline.

    Cost profile: cheapest footprint and random access of the library;
    mid-sequence inserts/removes shift whole records (streaming);
    growth copies the full payload into a larger block.
    """

    ddt_name = "AR"
    description = "dynamic array, records inline"

    # -- storage ---------------------------------------------------------
    def _setup_storage(self) -> None:
        self._capacity = INITIAL_CAPACITY
        self._block: Block = self._pool.allocate(self._capacity * self._spec.size_bytes)

    def _grow(self) -> None:
        """Reallocate a full array to the next capacity."""
        new_capacity = max(INITIAL_CAPACITY, self._capacity * GROWTH_FACTOR)
        copy_words = len(self._items) * self._record_words
        # realloc: stream every live record into the new block
        pool = self._pool
        self._block = pool.reallocate(self._block, new_capacity * self._spec.size_bytes)
        pool.stream_reads += copy_words
        pool.stream_writes += copy_words
        self._capacity = new_capacity

    # -- cost hooks --------------------------------------------------------
    # A random record access touches its first word dependently and
    # streams the rest; a shift streams every moved record both ways.
    def _model_append(self) -> None:
        if len(self._items) >= self._capacity:
            self._grow()
        pool = self._pool
        pool.dep_writes += 1
        pool.stream_writes += self._record_words - 1

    def _model_insert(self, pos: int) -> None:
        if len(self._items) >= self._capacity:
            self._grow()
        words = self._record_words
        shifted = (len(self._items) - pos) * words
        pool = self._pool
        pool.stream_reads += shifted
        pool.stream_writes += shifted + words - 1
        pool.dep_writes += 1

    def _model_get(self, pos: int) -> None:
        pool = self._pool
        pool.dep_reads += 1
        pool.stream_reads += self._record_words - 1

    def _model_set(self, pos: int) -> None:
        pool = self._pool
        pool.dep_writes += 1
        pool.stream_writes += self._record_words - 1

    def _model_remove(self, pos: int) -> None:
        words = self._record_words
        shifted = (len(self._items) - pos - 1) * words
        pool = self._pool
        pool.dep_reads += 1
        pool.stream_reads += words - 1 + shifted
        pool.stream_writes += shifted

    def _model_scan(self, visited: int, hit: bool) -> None:
        reads = visited * self._key_words
        if hit:
            reads += self._record_words - self._key_words
        pool = self._pool
        pool.stream_reads += reads
        pool.steps += visited

    def _model_scan_reset(self) -> None:
        pass  # base address is in a register

    def _model_iter_step(self, pos: int) -> None:
        pool = self._pool
        pool.stream_reads += self._record_words
        pool.steps += 1

    def _model_clear(self) -> None:
        self._pool.free(self._block)
        self._capacity = INITIAL_CAPACITY
        self._block = self._pool.allocate(self._capacity * self._spec.size_bytes)

    def _model_dispose(self) -> None:
        self._pool.free(self._block)


class PointerArrayDDT(DynamicDataType):
    """``AR(P)`` -- dynamic array of pointers to individually allocated records.

    Cost profile: shifts and growth copies move only 4-byte pointers, so
    mid-sequence mutation is much cheaper than ``AR`` for large records;
    every access pays one pointer indirection and every record pays the
    allocator's per-block overhead.
    """

    ddt_name = "AR(P)"
    description = "dynamic array of pointers, records allocated individually"

    # -- storage ---------------------------------------------------------
    def _setup_storage(self) -> None:
        self._capacity = INITIAL_CAPACITY
        self._block: Block = self._pool.allocate(self._capacity * WORD_BYTES)
        self._record_blocks: list[Block] = []
        self._record_bytes = self._spec.size_bytes

    def _grow(self) -> None:
        """Reallocate a full pointer array to the next capacity."""
        new_capacity = max(INITIAL_CAPACITY, self._capacity * GROWTH_FACTOR)
        copy_words = len(self._items)  # one word per pointer
        pool = self._pool
        self._block = pool.reallocate(self._block, new_capacity * WORD_BYTES)
        pool.stream_reads += copy_words
        pool.stream_writes += copy_words
        self._capacity = new_capacity

    # -- cost hooks --------------------------------------------------------
    # A new record gets its own block, written with its first word
    # dependent; the pointer store is one more dependent write.
    def _model_append(self) -> None:
        if len(self._items) >= self._capacity:
            self._grow()
        pool = self._pool
        self._record_blocks.append(pool.allocate(self._record_bytes))
        pool.dep_writes += 2
        pool.stream_writes += self._record_words - 1

    def _model_insert(self, pos: int) -> None:
        if len(self._items) >= self._capacity:
            self._grow()
        shifted = len(self._items) - pos  # pointers move, records stay
        pool = self._pool
        pool.stream_reads += shifted
        self._record_blocks.append(pool.allocate(self._record_bytes))
        pool.dep_writes += 2
        pool.stream_writes += shifted + self._record_words - 1

    def _model_get(self, pos: int) -> None:
        pool = self._pool
        pool.dep_reads += 2  # pointer load + dependent first record word
        pool.stream_reads += self._record_words - 1

    def _model_set(self, pos: int) -> None:
        pool = self._pool
        pool.dep_reads += 1  # pointer load
        pool.dep_writes += 1
        pool.stream_writes += self._record_words - 1

    def _model_remove(self, pos: int) -> None:
        shifted = len(self._items) - pos - 1
        pool = self._pool
        pool.dep_reads += 2
        pool.stream_reads += self._record_words - 1 + shifted
        pool.free(self._record_blocks.pop())
        pool.stream_writes += shifted

    def _model_scan(self, visited: int, hit: bool) -> None:
        # one dependent pointer load per visited record, keys stream
        reads = visited * self._key_words
        if hit:
            reads += self._record_words - self._key_words
        pool = self._pool
        pool.dep_reads += visited
        pool.stream_reads += reads
        pool.steps += visited

    def _model_scan_reset(self) -> None:
        pass

    def _model_iter_step(self, pos: int) -> None:
        pool = self._pool
        pool.dep_reads += 1
        pool.stream_reads += self._record_words
        pool.steps += 1

    def _free_records(self) -> None:
        # Record blocks share one size class, so the order they are
        # freed in changes no count.
        free = self._pool.free
        blocks = self._record_blocks
        while blocks:
            free(blocks.pop())

    def _model_clear(self) -> None:
        self._free_records()
        self._pool.free(self._block)
        self._capacity = INITIAL_CAPACITY
        self._block = self._pool.allocate(self._capacity * WORD_BYTES)

    def _model_dispose(self) -> None:
        self._free_records()
        self._pool.free(self._block)
