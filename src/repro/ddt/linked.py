"""Linked-list DDTs: ``SLL``, ``DLL`` and roving-pointer ``SLL(O)``/``DLL(O)``.

Linked lists are the mutation-friendly end of the library: inserts and
removals rewrite a pointer or two once the position is reached, and no
element ever moves.  The price is a per-node pointer (plus allocator
header) in the footprint and a pointer-chasing walk for positional
access.

Access-kind modelling: every hop is a *dependent* access (the next
address is unknown until the pointer loads -- full memory latency),
while the record payload at a reached node streams.  Dependent hops are
what make long list walks slow; the extra pointer words are what make
them energy-hungry on top.

The ``(O)`` variants keep a *roving cursor* -- the classical
optimisation of the paper's DDT library -- modelled as a (previous,
current) node pair: repeated accesses in a neighbourhood cost only the
distance from the cursor, and a removal right at the cursor is free of
walking entirely (the scan that set the cursor retained the
predecessor).

The original NetBench implementations of the paper's benchmarks use
singly linked lists; :data:`repro.ddt.registry.ORIGINAL_DDT` points at
:class:`SinglyLinkedDDT` for that reason.
"""

from __future__ import annotations

from repro.ddt.base import DynamicDataType
from repro.ddt.records import WORD_BYTES
from repro.memory.allocator import Block

__all__ = [
    "SinglyLinkedDDT",
    "DoublyLinkedDDT",
    "RovingSinglyLinkedDDT",
    "RovingDoublyLinkedDDT",
]

#: Bytes of the list descriptor (head, tail, count, cursor fields).
DESCRIPTOR_BYTES = 16


class _LinkedBase(DynamicDataType):
    """Shared storage/cost machinery of the four linked-list DDTs."""

    #: Pointer words per node (1 for singly, 2 for doubly linked).
    ptr_words = 1
    #: Whether a cursor to the last accessed position is maintained.
    roving = False

    # -- storage ---------------------------------------------------------
    def _setup_storage(self) -> None:
        self._descriptor: Block = self._pool.allocate(DESCRIPTOR_BYTES)
        self._node_blocks: list[Block] = []
        self._node_bytes = self._spec.size_bytes + self.ptr_words * WORD_BYTES
        self._rov: int | None = None

    def _free_nodes(self) -> None:
        # All node blocks share one size class, so block identity is
        # interchangeable for accounting purposes.
        free = self._pool.free
        blocks = self._node_blocks
        while blocks:
            free(blocks.pop())

    # -- walking (one hook per organisation) -------------------------------
    def _walk_reads(self, pos: int) -> int:
        """Dependent reads needed to reach node ``pos``."""
        raise NotImplementedError

    def _walk_to_neighbour(self, pos: int) -> None:
        """Walk to where an insert/remove at ``pos`` rewrites pointers."""
        raise NotImplementedError

    # -- cost hooks --------------------------------------------------------
    def _model_append(self) -> None:
        pool = self._pool
        self._node_blocks.append(pool.allocate(self._node_bytes))
        pool.dep_reads += 1  # tail pointer
        pool.stream_writes += self._record_words
        # next/prev init + old-tail link + tail field update
        pool.dep_writes += self.ptr_words + 2

    def _model_insert(self, pos: int) -> None:
        if pos == len(self._items):
            self._model_append()
        else:
            self._walk_to_neighbour(pos)
            pool = self._pool
            self._node_blocks.append(pool.allocate(self._node_bytes))
            pool.stream_writes += self._record_words
            pool.dep_writes += self.ptr_words * 2  # init links + relink neighbours
        rov = self._rov
        if rov is not None and pos <= rov:
            self._rov = rov + 1

    def _model_get(self, pos: int) -> None:
        reads = self._walk_reads(pos)
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads
        pool.stream_reads += self._record_words
        if self.roving:
            self._rov = pos
            pool.dep_writes += 1  # update the cursor field

    def _model_set(self, pos: int) -> None:
        reads = self._walk_reads(pos)
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads
        pool.stream_writes += self._record_words
        if self.roving:
            self._rov = pos
            pool.dep_writes += 1  # update the cursor field

    def _model_remove(self, pos: int) -> None:
        self._walk_to_neighbour(pos)
        pool = self._pool
        pool.stream_reads += self._record_words  # removed value returned
        pool.dep_writes += self.ptr_words  # relink neighbour(s)
        pool.free(self._node_blocks.pop())
        rov = self._rov
        if rov is not None:
            if pos == rov:
                self._rov = None
            elif pos < rov:
                self._rov = rov - 1

    def _model_scan(self, visited: int, hit: bool) -> None:
        pool = self._pool
        if visited == 0:
            pool.dep_reads += 1  # empty check reads the head pointer
            return
        # head pointer + next-pointer per advance: all dependent
        reads = visited * self._key_words
        if hit:
            reads += self._record_words - self._key_words
        pool.dep_reads += visited
        pool.stream_reads += reads
        pool.steps += visited
        if self.roving and hit:
            self._rov = visited - 1
            pool.dep_writes += 1

    def _model_scan_reset(self) -> None:
        self._pool.dep_reads += 1  # head pointer

    def _model_iter_step(self, pos: int) -> None:
        pool = self._pool
        if pos > 0:
            pool.dep_reads += 1
        pool.stream_reads += self._record_words
        pool.steps += 1

    def _model_clear(self) -> None:
        # Walk the chain once, freeing every node.
        n = len(self._items)
        pool = self._pool
        pool.dep_reads += n  # next pointer of each node
        pool.steps += n
        self._free_nodes()
        pool.dep_writes += 2  # head/tail reset
        self._rov = None

    def _model_dispose(self) -> None:
        n = len(self._items)
        pool = self._pool
        pool.dep_reads += n
        pool.steps += n
        self._free_nodes()
        pool.free(self._descriptor)
        self._rov = None


class SinglyLinkedDDT(_LinkedBase):
    """``SLL`` -- singly linked list with head and tail pointers.

    O(1) append; positional access walks from the head; removal walks to
    the predecessor.  This is the paper's "original implementation"
    baseline for the NetBench applications.
    """

    ddt_name = "SLL"
    description = "singly linked list (head+tail)"
    ptr_words = 1

    def _walk_reads(self, pos: int) -> int:
        return pos + 1  # head field + pos next-pointers

    def _walk_to_neighbour(self, pos: int) -> None:
        # Need the predecessor: walk pos nodes from the head field.
        reads = pos if pos > 1 else 1
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads


class DoublyLinkedDDT(_LinkedBase):
    """``DLL`` -- doubly linked list; walks start from the nearer end."""

    ddt_name = "DLL"
    description = "doubly linked list (walks from nearer end)"
    ptr_words = 2

    def _walk_reads(self, pos: int) -> int:
        from_tail = len(self._items) - pos
        return from_tail if from_tail <= pos else pos + 1  # nearer end

    def _walk_to_neighbour(self, pos: int) -> None:
        # The node itself suffices: prev is reachable via its back link.
        reads = self._walk_reads(pos)
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads


class RovingSinglyLinkedDDT(SinglyLinkedDDT):
    """``SLL(O)`` -- singly linked list with a roving cursor.

    The cursor holds (previous, current) of the last accessed node.
    Accesses at or after the cursor walk forward from it; accesses
    before it restart from the head (a singly linked cursor cannot move
    backwards).  A removal exactly at the cursor needs no walk at all.
    """

    ddt_name = "SLL(O)"
    description = "singly linked list with roving pointer"
    roving = True

    def _walk_reads(self, pos: int) -> int:
        rov = self._rov
        if rov is not None and pos >= rov:
            return pos - rov + 1  # cursor + forward hops
        return pos + 1

    def _walk_to_neighbour(self, pos: int) -> None:
        reads = pos if pos > 1 else 1
        rov = self._rov
        if rov is not None:
            if pos == rov:
                reads = 1  # cursor pair has the predecessor already
            elif pos > rov and pos - rov < reads:
                reads = pos - rov
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads
        pool.dep_writes += 1
        self._rov = pos


class RovingDoublyLinkedDDT(DoublyLinkedDDT):
    """``DLL(O)`` -- doubly linked list with a roving cursor.

    Walks start from the nearest of head, tail and cursor; the cursor
    moves in both directions.
    """

    ddt_name = "DLL(O)"
    description = "doubly linked list with roving pointer"
    roving = True

    def _walk_reads(self, pos: int) -> int:
        from_tail = len(self._items) - pos
        best = from_tail if from_tail <= pos else pos + 1  # nearer end
        rov = self._rov
        if rov is not None:
            from_cursor = abs(pos - rov) + 1
            if from_cursor < best:
                best = from_cursor
        return best

    def _walk_to_neighbour(self, pos: int) -> None:
        if self._rov is not None and pos == self._rov:
            reads = 1  # cursor points at the node; prev via back link
        else:
            reads = self._walk_reads(pos)
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads
        pool.dep_writes += 1
        self._rov = pos
