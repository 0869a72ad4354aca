"""Array-based DDTs: ``AR`` (records inline) and ``AR(P)`` (pointer array).

These are the footprint-lean end of the library.  ``AR`` stores records
contiguously (no per-record overhead at all, O(1) positional access, but
element shifts on mid-sequence insert/remove and copy bursts on growth).
``AR(P)`` stores 4-byte pointers contiguously and each record in its own
heap block -- shifts move only pointers, at the price of one indirection
per access and per-record allocator overhead.

Heap blocks: every array is one block of ``capacity x slot bytes``, and
``AR(P)`` holds one record block per stored record, so both counts come
from the capacity and the length the organisation keeps anyway.

Access-kind modelling: array traffic is overwhelmingly *streaming*
(shifts, growth copies, sequential scans, contiguous record reads), so
it is charged at the pipelined streaming rate; only the first touch of a
randomly indexed record (and ``AR(P)``'s pointer loads) is a dependent
access.  This is what makes arrays fast *and* energy-proportional to
their word traffic.

Shared state: both arrays hold one slot per record and start and grow
their capacity alike, so they reallocate at the same lengths and shift
the same slots on every op.  The organisation therefore keeps one
capacity and counts records added, read, written, removed and moved
(shifted or copied by growth) once; a slot is a whole record for ``AR``
and one pointer word for ``AR(P)`` (``boxed``), which is all their
prices differ in besides ``AR(P)``'s pointer loads and per-record
blocks.
"""

from __future__ import annotations

from repro.ddt.base import DynamicDataType, OrganisationState
from repro.ddt.records import WORD_BYTES, RecordSpec

__all__ = ["ArrayDDT", "PointerArrayDDT"]

#: Initial capacity (records) of a freshly created array.
INITIAL_CAPACITY = 4
#: Geometric growth factor on overflow.
GROWTH_FACTOR = 2


class _ArrayState(OrganisationState):
    """One capacity, the event counts and the blocks of array lanes."""

    _events = (
        "_adds",  # appends and inserts
        "_gets",
        "_sets",
        "_removes",
        "_moved",  # slots shifted or copied by growth
        "_visited",
        "_hits",
        "_iter_steps",
    )

    def _setup(self, spec: RecordSpec) -> None:
        size = self._record_bytes = spec.size_bytes
        #: Each lane's pool and array slot bytes.
        self._slots = tuple(
            (pool, WORD_BYTES if ddt.boxed else size) for ddt, pool in self.lanes
        )
        #: The pools of the lanes that box each record in its own block.
        self._boxes = tuple(pool for ddt, pool in self.lanes if ddt.boxed)
        self._capacity = INITIAL_CAPACITY
        for pool, slot in self._slots:
            pool.allocate(INITIAL_CAPACITY * slot)

    # -- storage ---------------------------------------------------------
    def _grow(self) -> None:
        """Reallocate every lane's full array to the next capacity."""
        old = self._capacity
        capacity = max(INITIAL_CAPACITY, old * GROWTH_FACTOR)
        self._moved += len(self._items)  # realloc streams every live slot
        for pool, slot in self._slots:
            pool.reallocate(old * slot, capacity * slot)
        self._capacity = capacity

    def _add_record(self) -> None:
        if len(self._items) >= self._capacity:
            self._grow()
        self._adds += 1
        for pool in self._boxes:
            pool.allocate(self._record_bytes)

    def _free_storage(self) -> None:
        """Free every lane's record blocks, then its array."""
        records = len(self._items)
        if records:
            for pool in self._boxes:
                pool.free(self._record_bytes, records)
        for pool, slot in self._slots:
            pool.free(self._capacity * slot)

    # -- cost hooks --------------------------------------------------------
    def _model_append(self) -> None:
        self._add_record()

    def _model_insert(self, pos: int) -> None:
        self._add_record()
        self._moved += len(self._items) - pos

    def _model_get(self, pos: int) -> None:
        self._gets += 1

    def _model_set(self, pos: int) -> None:
        self._sets += 1

    def _model_remove(self, pos: int) -> None:
        self._removes += 1
        self._moved += len(self._items) - pos - 1
        for pool in self._boxes:
            pool.free(self._record_bytes)

    def _model_scan(self, visited: int, hit: bool) -> None:
        self._visited += visited
        if hit:
            self._hits += 1

    def _model_scan_reset(self) -> None:
        pass  # base address is in a register

    def _model_iter_step(self, pos: int) -> None:
        self._iter_steps += 1

    def _model_clear(self) -> None:
        self._free_storage()
        for pool, slot in self._slots:
            pool.allocate(INITIAL_CAPACITY * slot)
        self._capacity = INITIAL_CAPACITY

    def _model_dispose(self) -> None:
        self._free_storage()

    # -- pricing -----------------------------------------------------------
    # A random record access touches its first word dependently and
    # streams the rest; a moved slot streams both ways.  ``AR(P)`` also
    # loads the pointer on every access, scan visit and iteration step,
    # and stores it (one more dependent write) for every new record.
    def _price(self, ddt: type[DynamicDataType]) -> tuple[int, int, int, int, int]:
        words, key = self._record_words, self._key_words
        reads = self._gets + self._removes
        writes = self._adds + self._sets
        visited, hits = self._visited, self._hits
        moved = self._moved if ddt.boxed else self._moved * words
        stream_reads = reads * (words - 1) + moved + visited * key + hits * (words - key)
        stream_writes = writes * (words - 1) + moved
        if ddt.boxed:
            return (
                2 * reads + self._sets + visited + self._iter_steps,
                2 * self._adds + self._sets,
                stream_reads,
                stream_writes,
                visited,
            )
        return reads, writes, stream_reads, stream_writes, visited


class ArrayDDT(DynamicDataType):
    """``AR`` -- dynamic array with records stored inline.

    Cost profile: cheapest footprint and random access of the library;
    mid-sequence inserts/removes shift whole records (streaming);
    growth copies the full payload into a larger block.
    """

    ddt_name = "AR"
    description = "dynamic array, records inline"
    organisation = _ArrayState
    #: Whether every record lives in its own heap block (``AR(P)``).
    boxed = False


class PointerArrayDDT(DynamicDataType):
    """``AR(P)`` -- dynamic array of pointers to individually allocated records.

    Cost profile: shifts and growth copies move only 4-byte pointers, so
    mid-sequence mutation is much cheaper than ``AR`` for large records;
    every access pays one pointer indirection and every record pays the
    allocator's per-block overhead.
    """

    ddt_name = "AR(P)"
    description = "dynamic array of pointers, records allocated individually"
    organisation = _ArrayState
    boxed = True
