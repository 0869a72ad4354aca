"""Chunked-list DDTs: ``SLL(AR)``, ``DLL(AR)`` and roving variants.

A chunked list (unrolled linked list) links fixed-capacity arrays of
records: traversal hops over whole chunks instead of single nodes, the
per-record pointer overhead is amortised across the chunk, and shifts on
insert/remove stay within one chunk.  This is the middle ground of the
library -- close to arrays in footprint and to lists in mutation cost --
and in the paper's results chunked variants frequently sit on the Pareto
front between the two extremes.

Chunk capacity targets :data:`CHUNK_BYTES` of payload (at least
:data:`MIN_CHUNK_RECORDS` records), following the paper's library which
sizes internal arrays to a fixed byte budget.

Shared state: the chunk capacity depends only on the record size
(:func:`chunk_capacity`), so the four chunked lists fill, split and free
their chunks at the same ops and their fill lists stay equal; the two
roving variants set their chunk cursor in the same places (the chunk a
locate reached, the chunk of a scan hit) and drop it on every insert,
remove and split, and the other two never read it.  So the organisation
keeps one fill list and one cursor and runs each locate's (chunk,
offset) scan once, counting one hop sum per walk rule (from the head,
from the nearer end, and either one or the cursor); every list prices
the counts by its own rule, header pointer words and cursor writes.

Heap blocks: a chunked list is one descriptor block plus one block per
chunk, so its chunk count is the length of its fill list.
"""

from __future__ import annotations

from repro.ddt.base import DESCRIPTOR_BYTES, DynamicDataType, OrganisationState
from repro.ddt.records import WORD_BYTES, RecordSpec

__all__ = [
    "ChunkedSinglyLinkedDDT",
    "ChunkedDoublyLinkedDDT",
    "RovingChunkedSinglyLinkedDDT",
    "RovingChunkedDoublyLinkedDDT",
    "chunk_capacity",
]

#: Target payload bytes per chunk.
CHUNK_BYTES = 256
#: Lower bound on records per chunk (tiny records never chunk singly).
MIN_CHUNK_RECORDS = 4


def chunk_capacity(record_bytes: int) -> int:
    """Records per chunk for a given record size.

    >>> chunk_capacity(32)
    8
    >>> chunk_capacity(256)
    4
    """
    if record_bytes <= 0:
        raise ValueError("record_bytes must be positive")
    return max(MIN_CHUNK_RECORDS, CHUNK_BYTES // record_bytes)


class _ChunkedState(OrganisationState):
    """One fill list, one cursor, the event counts and the blocks of
    chunked-list lanes.

    The model tracks the fill of every chunk (``self._fills``) so that
    traversal distances, shift widths and split costs reflect the actual
    chunk layout produced by the operation history.
    """

    _events = (
        "_appends",  # appends, and inserts at the end
        "_chunk_allocs",
        "_tail_links",  # appends that link a new tail chunk
        "_chunk_frees",  # chunks freed by a removal
        "_locates",
        "_sll_hops",  # chunk hops from the head
        "_dll_hops",  # ... from the nearer end
        "_sllo_hops",  # ... from the head or the cursor, forwards
        "_dllo_hops",  # ... from the nearest of head, tail and cursor
        "_splits",
        "_inserts",
        "_gets",
        "_sets",
        "_removes",
        "_shifted",  # records moved within a chunk
        "_pointer_loads",  # head-chunk pointers
        "_next_hops",  # next pointer plus the next chunk's count
        "_visited",
        "_hits",
        "_cleared",  # chunks walked to free them
        "_clears",
    )

    def _setup(self, spec: RecordSpec) -> None:
        size = spec.size_bytes
        self._chunk_records = chunk_capacity(size)
        #: Each lane's pool and chunk bytes (links, a count, the records).
        self._chunks = tuple(
            (pool, (ddt.ptr_words + 1) * WORD_BYTES + self._chunk_records * size)
            for ddt, pool in self.lanes
        )
        self._fills: list[int] = []
        self._rov_chunk: int | None = None
        for _, pool in self.lanes:
            pool.allocate(DESCRIPTOR_BYTES)

    # -- storage ---------------------------------------------------------
    def _alloc_chunk(self, index: int, fill: int) -> None:
        for pool, chunk in self._chunks:
            pool.allocate(chunk)
        self._fills.insert(index, fill)
        self._chunk_allocs += 1

    def _free_chunk(self, index: int) -> None:
        for pool, chunk in self._chunks:
            pool.free(chunk)
        del self._fills[index]
        self._chunk_frees += 1

    def _free_chunks(self) -> None:
        chunks = len(self._fills)
        if chunks:
            for pool, chunk in self._chunks:
                pool.free(chunk, chunks)
            self._fills.clear()

    # -- location ----------------------------------------------------------
    def _locate(self, pos: int) -> tuple[int, int]:
        """Chunk index and in-chunk offset of sequence position ``pos``.

        Counts the traversal from each walk rule's start: one dependent
        read per chunk hop (the next pointer) plus a streaming count read
        per visited chunk.  The cursor moves to the chunk.
        """
        fills = self._fills
        offset = pos
        for chunk_idx, fill in enumerate(fills):
            if offset < fill:
                break
            offset -= fill
        else:  # pos == len(items): append position in the last chunk
            chunk_idx, offset = (len(fills) - 1, fills[-1]) if fills else (0, 0)
        from_tail = len(fills) - 1 - chunk_idx
        if from_tail < chunk_idx:
            nearer = from_tail if from_tail > 0 else 0
        else:
            nearer = chunk_idx
        self._sll_hops += chunk_idx
        self._dll_hops += nearer
        rov = self._rov_chunk
        if rov is None:
            self._sllo_hops += chunk_idx
            self._dllo_hops += nearer
        else:
            self._sllo_hops += chunk_idx - rov if chunk_idx >= rov else chunk_idx
            from_cursor = abs(chunk_idx - rov)
            self._dllo_hops += from_cursor if from_cursor < nearer else nearer
        self._locates += 1
        self._rov_chunk = chunk_idx
        return chunk_idx, offset

    # -- structural operations ----------------------------------------------
    def _split(self, chunk_idx: int) -> None:
        """Split a full chunk, moving its upper half into a new chunk."""
        move = self._chunk_records // 2
        self._alloc_chunk(chunk_idx + 1, move)
        self._splits += 1
        self._fills[chunk_idx] = self._chunk_records - move

    # -- cost hooks --------------------------------------------------------
    def _model_append(self) -> None:
        fills = self._fills
        if not fills or fills[-1] == self._chunk_records:
            self._alloc_chunk(len(fills), 0)
            if len(fills) > 1:
                self._tail_links += 1
        fills[-1] += 1
        self._appends += 1

    def _model_insert(self, pos: int) -> None:
        if pos == len(self._items):
            self._model_append()
            return
        chunk_idx, offset = self._locate(pos)
        fills = self._fills
        if fills[chunk_idx] == self._chunk_records:
            self._split(chunk_idx)
            if offset > fills[chunk_idx]:
                offset -= fills[chunk_idx]
                chunk_idx += 1
        self._shifted += fills[chunk_idx] - offset  # memmove within the chunk
        fills[chunk_idx] += 1
        self._inserts += 1
        self._rov_chunk = None

    def _model_get(self, pos: int) -> None:
        self._locate(pos)
        self._gets += 1

    def _model_set(self, pos: int) -> None:
        self._locate(pos)
        self._sets += 1

    def _model_remove(self, pos: int) -> None:
        chunk_idx, offset = self._locate(pos)
        fills = self._fills
        fill = fills[chunk_idx]
        self._shifted += fill - offset - 1  # memmove within the chunk
        self._removes += 1
        fills[chunk_idx] = fill - 1
        if fill == 1:
            self._free_chunk(chunk_idx)
        self._rov_chunk = None

    def _model_scan(self, visited: int, hit: bool) -> None:
        self._pointer_loads += 1  # head-chunk pointer
        if visited == 0:
            return
        # Hops between the chunks the first `visited` records span.
        remaining = visited
        hops = -1
        for fill in self._fills:
            hops += 1
            remaining -= fill
            if remaining <= 0:
                break
        self._next_hops += hops
        self._visited += visited
        if hit:
            self._hits += 1
            self._rov_chunk = hops

    def _model_scan_reset(self) -> None:
        self._pointer_loads += 1  # head-chunk pointer
        self._scan_running = 0
        self._scan_chunk = 0

    def _model_iter_step(self, pos: int) -> None:
        """Count the chunk hops when a scan crosses a boundary."""
        fills = self._fills
        while (
            self._scan_chunk < len(fills)
            and pos >= self._scan_running + fills[self._scan_chunk]
        ):
            self._scan_running += fills[self._scan_chunk]
            self._scan_chunk += 1
            self._next_hops += 1

    def _model_clear(self) -> None:
        self._cleared += len(self._fills)
        self._clears += 1
        self._free_chunks()
        self._rov_chunk = None

    def _model_dispose(self) -> None:
        self._cleared += len(self._fills)
        self._free_chunks()
        for _, pool in self.lanes:
            pool.free(DESCRIPTOR_BYTES)
        self._rov_chunk = None

    # -- pricing -----------------------------------------------------------
    # A locate reads the start field and one next pointer per hop
    # (dependent) and one fill count per hop (streamed); a scan or
    # iteration hop reads a next pointer and a count.  A new chunk
    # initialises its ``ptr_words`` links and its count, a freed one
    # unlinks them; a split streams half a chunk across and rewrites the
    # old count.  A roving list also writes its cursor on every locate
    # and scan hit.
    def _price(self, ddt: type[DynamicDataType]) -> tuple[int, int, int, int, int]:
        words, key, ptr = self._record_words, self._key_words, ddt.ptr_words
        hops = getattr(self, ddt.hop_sum)
        locates, appends, inserts = self._locates, self._appends, self._inserts
        removes, visited, hits = self._removes, self._visited, self._hits
        copied = (self._splits * (self._chunk_records // 2) + self._shifted) * words
        dep_writes = (
            self._chunk_allocs * (ptr + 1)
            + self._tail_links
            + appends
            + self._splits
            + inserts
            + removes
            + self._chunk_frees * ptr
            + 2 * self._clears
        )
        if ddt.roving:
            dep_writes += locates + hits
        return (
            appends + locates + hops + self._pointer_loads + self._next_hops + self._cleared,
            dep_writes,
            hops + copied + (self._gets + removes) * words + self._next_hops
            + visited * key + hits * (words - key),
            copied + (appends + inserts + self._sets) * words,
            locates + hops + visited + self._cleared,
        )


class _ChunkedBase(DynamicDataType):
    """The constants the chunked organisation prices a list by."""

    organisation = _ChunkedState
    #: Pointer words per chunk header (1 singly, 2 doubly linked).
    ptr_words = 1
    #: Whether a cursor to the last accessed chunk is maintained.
    roving = False
    #: The event counter of the walk rule this list locates by.
    hop_sum = "_sll_hops"


class ChunkedSinglyLinkedDDT(_ChunkedBase):
    """``SLL(AR)`` -- singly linked list of record arrays."""

    ddt_name = "SLL(AR)"
    description = "singly linked list of arrays (unrolled list)"


class ChunkedDoublyLinkedDDT(_ChunkedBase):
    """``DLL(AR)`` -- doubly linked list of record arrays."""

    ddt_name = "DLL(AR)"
    description = "doubly linked list of arrays"
    ptr_words = 2
    hop_sum = "_dll_hops"


class RovingChunkedSinglyLinkedDDT(ChunkedSinglyLinkedDDT):
    """``SLL(ARO)`` -- chunked singly linked list with a chunk cursor.

    The cursor caches the last accessed chunk; it is invalidated by any
    structural mutation (insert/remove), matching a conservative cache
    implementation.
    """

    ddt_name = "SLL(ARO)"
    description = "chunked singly linked list with roving chunk pointer"
    roving = True
    hop_sum = "_sllo_hops"


class RovingChunkedDoublyLinkedDDT(ChunkedDoublyLinkedDDT):
    """``DLL(ARO)`` -- chunked doubly linked list with a chunk cursor."""

    ddt_name = "DLL(ARO)"
    description = "chunked doubly linked list with roving chunk pointer"
    roving = True
    hop_sum = "_dllo_hops"
