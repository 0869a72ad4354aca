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
and one pointer word for ``AR(P)``, which is all their prices differ in
besides ``AR(P)``'s pointer loads and per-record blocks.
"""

from __future__ import annotations

from repro.ddt.base import DynamicDataType
from repro.ddt.records import WORD_BYTES

__all__ = ["ArrayDDT", "PointerArrayDDT"]

#: Initial capacity (records) of a freshly created array.
INITIAL_CAPACITY = 4
#: Geometric growth factor on overflow.
GROWTH_FACTOR = 2


class _ArrayBase(DynamicDataType):
    """Shared state, allocation and event counts of the two arrays."""

    organisation = "array"
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
    #: Whether every record lives in its own heap block (``AR(P)``).
    boxed = False

    # -- storage ---------------------------------------------------------
    def _setup_storage(self) -> None:
        self._slot_bytes = WORD_BYTES if self.boxed else self._spec.size_bytes
        self._capacity = INITIAL_CAPACITY
        self._pool.allocate(INITIAL_CAPACITY * self._slot_bytes)

    def _grow(self) -> None:
        """Reallocate every member's full array to the next capacity."""
        old = self._capacity
        capacity = max(INITIAL_CAPACITY, old * GROWTH_FACTOR)
        self._moved += len(self._items)  # realloc streams every live slot
        for lane in self._members:
            lane._pool.reallocate(old * lane._slot_bytes, capacity * lane._slot_bytes)
        self._capacity = capacity

    def _add_record(self) -> None:
        if len(self._items) >= self._capacity:
            self._grow()
        self._adds += 1
        for lane in self._members:
            if lane.boxed:
                lane._pool.allocate(lane._spec.size_bytes)

    def _free_storage(self) -> None:
        """Free every member's record blocks, then its array."""
        records = len(self._items)
        for lane in self._members:
            pool = lane._pool
            if lane.boxed and records:
                pool.free(lane._spec.size_bytes, records)
            pool.free(self._capacity * lane._slot_bytes)

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
        for lane in self._members:
            if lane.boxed:
                lane._pool.free(lane._spec.size_bytes)

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
        for lane in self._members:
            lane._pool.allocate(INITIAL_CAPACITY * lane._slot_bytes)
        self._capacity = INITIAL_CAPACITY

    def _model_dispose(self) -> None:
        self._free_storage()


class ArrayDDT(_ArrayBase):
    """``AR`` -- dynamic array with records stored inline.

    Cost profile: cheapest footprint and random access of the library;
    mid-sequence inserts/removes shift whole records (streaming);
    growth copies the full payload into a larger block.
    """

    ddt_name = "AR"
    description = "dynamic array, records inline"

    # A random record access touches its first word dependently and
    # streams the rest; a moved record streams every word both ways.
    def _price(self, org: DynamicDataType) -> tuple[int, int, int, int, int]:
        words, key = self._record_words, self._key_words
        reads = org._gets + org._removes
        writes = org._adds + org._sets
        moved = org._moved * words
        visited, hits = org._visited, org._hits
        return (
            reads,
            writes,
            reads * (words - 1) + moved + visited * key + hits * (words - key),
            writes * (words - 1) + moved,
            visited,
        )


class PointerArrayDDT(_ArrayBase):
    """``AR(P)`` -- dynamic array of pointers to individually allocated records.

    Cost profile: shifts and growth copies move only 4-byte pointers, so
    mid-sequence mutation is much cheaper than ``AR`` for large records;
    every access pays one pointer indirection and every record pays the
    allocator's per-block overhead.
    """

    ddt_name = "AR(P)"
    description = "dynamic array of pointers, records allocated individually"
    boxed = True

    # A new record gets its own block, written with its first word
    # dependent; the pointer store is one more dependent write.  Every
    # access, scan visit and iteration step loads the pointer first.
    def _price(self, org: DynamicDataType) -> tuple[int, int, int, int, int]:
        words, key = self._record_words, self._key_words
        reads = org._gets + org._removes
        visited, hits = org._visited, org._hits
        return (
            2 * reads + org._sets + visited + org._iter_steps,
            2 * org._adds + org._sets,
            reads * (words - 1) + org._moved + visited * key + hits * (words - key),
            (org._adds + org._sets) * (words - 1) + org._moved,
            visited,
        )
