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
"""

from __future__ import annotations

from repro.ddt.base import DynamicDataType
from repro.ddt.records import WORD_BYTES
from repro.memory.allocator import Block

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
#: Bytes of the list descriptor (head, tail, count, cursor fields).
DESCRIPTOR_BYTES = 16


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


class _ChunkedBase(DynamicDataType):
    """Shared machinery of the four chunked-list DDTs.

    The model tracks the fill of every chunk (``self._fills``) so that
    traversal distances, shift widths and split costs reflect the actual
    chunk layout produced by the operation history.
    """

    #: Pointer words per chunk header (1 singly, 2 doubly linked).
    ptr_words = 1
    #: Whether a cursor to the last accessed chunk is maintained.
    roving = False

    # -- storage ---------------------------------------------------------
    def _setup_storage(self) -> None:
        size = self._spec.size_bytes
        self._chunk_records = chunk_capacity(size)
        header = self.ptr_words * WORD_BYTES + WORD_BYTES  # links + count
        self._chunk_bytes = header + self._chunk_records * size
        self._descriptor: Block = self._pool.allocate(DESCRIPTOR_BYTES)
        self._fills: list[int] = []
        self._chunk_blocks: list[Block] = []
        self._rov_chunk: int | None = None

    def _alloc_chunk(self, index: int, fill: int) -> None:
        pool = self._pool
        self._chunk_blocks.append(pool.allocate(self._chunk_bytes))
        self._fills.insert(index, fill)
        pool.dep_writes += self.ptr_words + 1  # link + count init

    def _free_chunk(self, index: int) -> None:
        pool = self._pool
        pool.free(self._chunk_blocks.pop())
        del self._fills[index]
        pool.dep_writes += self.ptr_words  # unlink

    # -- location ----------------------------------------------------------
    def _locate(self, pos: int) -> tuple[int, int]:
        """Chunk index and in-chunk offset of sequence position ``pos``.

        Charges the traversal from the walk start chosen by the
        subclass: one dependent read per chunk hop (the next pointer)
        plus a streaming count read per visited chunk.
        """
        fills = self._fills
        offset = pos
        for chunk_idx, fill in enumerate(fills):
            if offset < fill:
                break
            offset -= fill
        else:  # pos == len(items): append position in the last chunk
            chunk_idx, offset = (len(fills) - 1, fills[-1]) if fills else (0, 0)
        hops = self._hops_to(chunk_idx)
        pool = self._pool
        pool.dep_reads += hops + 1  # start field + next pointer per hop
        pool.stream_reads += hops  # fill counts along the way
        pool.steps += hops + 1
        if self.roving:
            self._rov_chunk = chunk_idx
            pool.dep_writes += 1
        return chunk_idx, offset

    def _hops_to(self, chunk_idx: int) -> int:
        """Chunk hops from the cheapest reachable start (subclass hook)."""
        raise NotImplementedError

    # -- structural operations ----------------------------------------------
    def _split(self, chunk_idx: int) -> None:
        """Split a full chunk, moving its upper half into a new chunk."""
        move = self._chunk_records // 2
        keep = self._chunk_records - move
        self._alloc_chunk(chunk_idx + 1, move)
        words = move * self._record_words
        pool = self._pool
        pool.stream_reads += words
        pool.stream_writes += words
        pool.dep_writes += 1  # count rewrite
        self._fills[chunk_idx] = keep
        if self.roving:
            self._rov_chunk = None

    # -- cost hooks --------------------------------------------------------
    def _model_append(self) -> None:
        pool = self._pool
        fills = self._fills
        if not fills or fills[-1] == self._chunk_records:
            self._alloc_chunk(len(fills), 0)
            if len(fills) > 1:
                pool.dep_writes += 1  # link previous tail chunk
        pool.dep_reads += 1  # tail-chunk pointer
        fills[-1] += 1
        pool.stream_writes += self._record_words
        pool.dep_writes += 1  # count update

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
        words = self._record_words
        shifted = (fills[chunk_idx] - offset) * words  # memmove within the chunk
        fills[chunk_idx] += 1
        pool = self._pool
        pool.stream_reads += shifted
        pool.stream_writes += shifted + words
        pool.dep_writes += 1
        if self.roving:
            self._rov_chunk = None

    def _model_get(self, pos: int) -> None:
        self._locate(pos)
        self._pool.stream_reads += self._record_words

    def _model_set(self, pos: int) -> None:
        self._locate(pos)
        self._pool.stream_writes += self._record_words

    def _model_remove(self, pos: int) -> None:
        chunk_idx, offset = self._locate(pos)
        fills = self._fills
        words = self._record_words
        fill = fills[chunk_idx]
        shifted = (fill - offset - 1) * words  # memmove within the chunk
        pool = self._pool
        pool.stream_reads += words + shifted
        pool.stream_writes += shifted
        pool.dep_writes += 1  # count
        fills[chunk_idx] = fill - 1
        if fill == 1:
            self._free_chunk(chunk_idx)
        if self.roving:
            self._rov_chunk = None

    def _model_scan(self, visited: int, hit: bool) -> None:
        pool = self._pool
        pool.dep_reads += 1  # head-chunk pointer
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
        pool.dep_reads += hops  # dependent next hops
        # fill counts stream, like the keys
        reads = hops + visited * self._key_words
        if hit:
            reads += self._record_words - self._key_words
        pool.stream_reads += reads
        pool.steps += visited
        if self.roving and hit:
            self._rov_chunk = hops
            pool.dep_writes += 1

    def _model_scan_reset(self) -> None:
        self._pool.dep_reads += 1  # head-chunk pointer
        self._scan_running = 0
        self._scan_chunk = 0

    def _model_iter_step(self, pos: int) -> None:
        self._charge_boundary(pos)
        pool = self._pool
        pool.stream_reads += self._record_words
        pool.steps += 1

    def _charge_boundary(self, pos: int) -> None:
        """Charge the chunk-hop reads when a scan crosses a boundary."""
        while (
            self._scan_chunk < len(self._fills)
            and pos >= self._scan_running + self._fills[self._scan_chunk]
        ):
            self._scan_running += self._fills[self._scan_chunk]
            self._scan_chunk += 1
            self._pool.dep_reads += 1  # dependent next pointer
            self._pool.stream_reads += 1  # count of the new chunk

    def _model_clear(self) -> None:
        hops = len(self._fills)
        pool = self._pool
        pool.dep_reads += hops
        pool.steps += hops
        while self._fills:
            pool.free(self._chunk_blocks.pop())
            self._fills.pop()
        pool.dep_writes += 2  # head/tail reset
        self._rov_chunk = None

    def _model_dispose(self) -> None:
        hops = len(self._fills)
        pool = self._pool
        pool.dep_reads += hops
        pool.steps += hops
        while self._fills:
            pool.free(self._chunk_blocks.pop())
            self._fills.pop()
        pool.free(self._descriptor)
        self._rov_chunk = None


class ChunkedSinglyLinkedDDT(_ChunkedBase):
    """``SLL(AR)`` -- singly linked list of record arrays."""

    ddt_name = "SLL(AR)"
    description = "singly linked list of arrays (unrolled list)"
    ptr_words = 1

    def _hops_to(self, chunk_idx: int) -> int:
        return chunk_idx


class ChunkedDoublyLinkedDDT(_ChunkedBase):
    """``DLL(AR)`` -- doubly linked list of record arrays."""

    ddt_name = "DLL(AR)"
    description = "doubly linked list of arrays"
    ptr_words = 2

    def _hops_to(self, chunk_idx: int) -> int:
        from_tail = len(self._fills) - 1 - chunk_idx
        if from_tail < chunk_idx:
            return from_tail if from_tail > 0 else 0
        return chunk_idx


class RovingChunkedSinglyLinkedDDT(ChunkedSinglyLinkedDDT):
    """``SLL(ARO)`` -- chunked singly linked list with a chunk cursor.

    The cursor caches the last accessed chunk; it is invalidated by any
    structural mutation (insert/remove), matching a conservative cache
    implementation.
    """

    ddt_name = "SLL(ARO)"
    description = "chunked singly linked list with roving chunk pointer"
    roving = True

    def _hops_to(self, chunk_idx: int) -> int:
        rov = self._rov_chunk
        if rov is not None and chunk_idx >= rov:
            return chunk_idx - rov  # forward from the cursor
        return chunk_idx


class RovingChunkedDoublyLinkedDDT(ChunkedDoublyLinkedDDT):
    """``DLL(ARO)`` -- chunked doubly linked list with a chunk cursor."""

    ddt_name = "DLL(ARO)"
    description = "chunked doubly linked list with roving chunk pointer"
    roving = True

    def _hops_to(self, chunk_idx: int) -> int:
        from_tail = len(self._fills) - 1 - chunk_idx
        if from_tail < chunk_idx:
            best = from_tail if from_tail > 0 else 0
        else:
            best = chunk_idx
        rov = self._rov_chunk
        if rov is not None:
            from_cursor = abs(chunk_idx - rov)
            if from_cursor < best:
                best = from_cursor
        return best
