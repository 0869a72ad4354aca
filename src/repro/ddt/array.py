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

    def _grow_if_full(self) -> None:
        if len(self._items) < self._capacity:
            return
        new_capacity = max(INITIAL_CAPACITY, self._capacity * GROWTH_FACTOR)
        copy_words = len(self._items) * self._spec.record_words
        # realloc: stream every live record into the new block
        pool = self._pool
        self._block = pool.reallocate(self._block, new_capacity * self._spec.size_bytes)
        pool.stream_reads += copy_words
        pool.stream_writes += copy_words
        self._capacity = new_capacity

    def _shift(self, records: int) -> None:
        """Charge moving ``records`` records by one slot (memmove)."""
        words = records * self._spec.record_words
        pool = self._pool
        pool.stream_reads += words
        pool.stream_writes += words

    def _read_record(self) -> None:
        """Random record read: first word dependent, rest streams."""
        pool = self._pool
        pool.dep_reads += 1
        pool.stream_reads += self._spec.record_words - 1

    def _write_record(self) -> None:
        pool = self._pool
        pool.dep_writes += 1
        pool.stream_writes += self._spec.record_words - 1

    # -- cost hooks --------------------------------------------------------
    def _model_append(self) -> None:
        self._grow_if_full()
        self._write_record()

    def _model_insert(self, pos: int) -> None:
        self._grow_if_full()
        self._shift(len(self._items) - pos)
        self._write_record()

    def _model_get(self, pos: int) -> None:
        self._read_record()

    def _model_set(self, pos: int) -> None:
        self._write_record()

    def _model_remove(self, pos: int) -> None:
        self._read_record()
        self._shift(len(self._items) - pos - 1)

    def _model_scan(self, visited: int, hit: bool) -> None:
        reads = visited * self._spec.key_words
        if hit:
            reads += self._spec.record_words - self._spec.key_words
        pool = self._pool
        pool.stream_reads += reads
        pool.steps += visited

    def _model_scan_reset(self) -> None:
        pass  # base address is in a register

    def _model_iter_step(self, pos: int) -> None:
        pool = self._pool
        pool.stream_reads += self._spec.record_words
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

    def _grow_if_full(self) -> None:
        if len(self._items) < self._capacity:
            return
        new_capacity = max(INITIAL_CAPACITY, self._capacity * GROWTH_FACTOR)
        copy_words = len(self._items)  # one word per pointer
        pool = self._pool
        self._block = pool.reallocate(self._block, new_capacity * WORD_BYTES)
        pool.stream_reads += copy_words
        pool.stream_writes += copy_words
        self._capacity = new_capacity

    def _shift_pointers(self, count: int) -> None:
        pool = self._pool
        pool.stream_reads += count
        pool.stream_writes += count

    def _alloc_record(self) -> None:
        pool = self._pool
        self._record_blocks.append(pool.allocate(self._spec.size_bytes))
        pool.dep_writes += 1
        pool.stream_writes += self._spec.record_words - 1

    def _free_record(self) -> None:
        self._pool.free(self._record_blocks.pop())

    # -- cost hooks --------------------------------------------------------
    def _model_append(self) -> None:
        self._grow_if_full()
        self._alloc_record()
        self._pool.dep_writes += 1  # store the pointer

    def _model_insert(self, pos: int) -> None:
        self._grow_if_full()
        self._shift_pointers(len(self._items) - pos)
        self._alloc_record()
        self._pool.dep_writes += 1

    def _model_get(self, pos: int) -> None:
        pool = self._pool
        pool.dep_reads += 2  # pointer load + dependent first record word
        pool.stream_reads += self._spec.record_words - 1

    def _model_set(self, pos: int) -> None:
        pool = self._pool
        pool.dep_reads += 1  # pointer load
        pool.dep_writes += 1
        pool.stream_writes += self._spec.record_words - 1

    def _model_remove(self, pos: int) -> None:
        pool = self._pool
        pool.dep_reads += 2
        pool.stream_reads += self._spec.record_words - 1
        self._free_record()
        self._shift_pointers(len(self._items) - pos - 1)

    def _model_scan(self, visited: int, hit: bool) -> None:
        # one dependent pointer load per visited record, keys stream
        reads = visited * self._spec.key_words
        if hit:
            reads += self._spec.record_words - self._spec.key_words
        pool = self._pool
        pool.dep_reads += visited
        pool.stream_reads += reads
        pool.steps += visited

    def _model_scan_reset(self) -> None:
        pass

    def _model_iter_step(self, pos: int) -> None:
        pool = self._pool
        pool.dep_reads += 1
        pool.stream_reads += self._spec.record_words
        pool.steps += 1

    def _model_clear(self) -> None:
        while self._record_blocks:
            self._free_record()
        self._pool.free(self._block)
        self._capacity = INITIAL_CAPACITY
        self._block = self._pool.allocate(self._capacity * WORD_BYTES)

    def _model_dispose(self) -> None:
        while self._record_blocks:
            self._free_record()
        self._pool.free(self._block)
