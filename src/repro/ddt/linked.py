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
        self._rov: int | None = None

    @property
    def _node_bytes(self) -> int:
        return self._spec.size_bytes + self.ptr_words * WORD_BYTES

    def _alloc_node(self) -> None:
        self._node_blocks.append(self._pool.allocate(self._node_bytes))

    def _free_node(self) -> None:
        # All node blocks share one size class, so block identity is
        # interchangeable for accounting purposes.
        self._pool.free(self._node_blocks.pop())

    # -- walking ---------------------------------------------------------
    def _walk_reads(self, pos: int) -> int:
        """Dependent reads needed to reach node ``pos`` (subclass hook)."""
        raise NotImplementedError

    def _walk(self, pos: int) -> None:
        reads = self._walk_reads(pos)
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads
        if self.roving:
            self._rov = pos
            pool.dep_writes += 1  # update the cursor field

    # -- roving-cursor maintenance ----------------------------------------
    def _cursor_after_insert(self, pos: int) -> None:
        if self._rov is not None and pos <= self._rov:
            self._rov += 1

    def _cursor_after_remove(self, pos: int) -> None:
        if self._rov is None:
            return
        if pos == self._rov:
            self._rov = None
        elif pos < self._rov:
            self._rov -= 1

    # -- cost hooks --------------------------------------------------------
    def _model_append(self) -> None:
        self._alloc_node()
        pool = self._pool
        pool.dep_reads += 1  # tail pointer
        pool.stream_writes += self._spec.record_words
        # next/prev init + old-tail link + tail field update
        pool.dep_writes += self.ptr_words + 2

    def _model_insert(self, pos: int) -> None:
        if pos == len(self._items):
            self._model_append()
            self._cursor_after_insert(pos)
            return
        self._walk_to_neighbour(pos)
        self._alloc_node()
        pool = self._pool
        pool.stream_writes += self._spec.record_words
        pool.dep_writes += self.ptr_words * 2  # init links + relink neighbours
        self._cursor_after_insert(pos)

    def _model_get(self, pos: int) -> None:
        self._walk(pos)
        self._pool.stream_reads += self._spec.record_words

    def _model_set(self, pos: int) -> None:
        self._walk(pos)
        self._pool.stream_writes += self._spec.record_words

    def _model_remove(self, pos: int) -> None:
        self._walk_to_neighbour(pos)
        pool = self._pool
        pool.stream_reads += self._spec.record_words  # removed value returned
        pool.dep_writes += self.ptr_words  # relink neighbour(s)
        self._free_node()
        self._cursor_after_remove(pos)

    def _model_scan(self, visited: int, hit: bool) -> None:
        pool = self._pool
        if visited == 0:
            pool.dep_reads += 1  # empty check reads the head pointer
            return
        # head pointer + next-pointer per advance: all dependent
        reads = visited * self._spec.key_words
        if hit:
            reads += self._spec.record_words - self._spec.key_words
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
        pool.stream_reads += self._spec.record_words
        pool.steps += 1

    def _model_clear(self) -> None:
        # Walk the chain once, freeing every node.
        n = len(self._items)
        pool = self._pool
        pool.dep_reads += n  # next pointer of each node
        pool.steps += n
        while self._node_blocks:
            self._free_node()
        pool.dep_writes += 2  # head/tail reset
        self._rov = None

    def _model_dispose(self) -> None:
        n = len(self._items)
        pool = self._pool
        pool.dep_reads += n
        pool.steps += n
        while self._node_blocks:
            self._free_node()
        pool.free(self._descriptor)
        self._rov = None

    # -- subclass hooks ----------------------------------------------------
    def _walk_to_neighbour(self, pos: int) -> None:
        """Walk to where an insert/remove at ``pos`` rewrites pointers."""
        raise NotImplementedError


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

    def _neighbour_reads(self, pos: int) -> int:
        # Need the predecessor: walk pos nodes from the head field.
        return max(1, pos)

    def _walk_to_neighbour(self, pos: int) -> None:
        reads = self._neighbour_reads(pos)
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads


class DoublyLinkedDDT(_LinkedBase):
    """``DLL`` -- doubly linked list; walks start from the nearer end."""

    ddt_name = "DLL"
    description = "doubly linked list (walks from nearer end)"
    ptr_words = 2

    def _walk_reads(self, pos: int) -> int:
        from_head = pos + 1
        from_tail = len(self._items) - pos
        return min(from_head, from_tail)

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
        if self._rov is not None and pos >= self._rov:
            return min(pos + 1, (pos - self._rov) + 1)  # cursor + forward hops
        return pos + 1

    def _neighbour_reads(self, pos: int) -> int:
        base = max(1, pos)
        if self._rov is not None:
            if pos == self._rov:
                return 1  # cursor pair has the predecessor already
            if pos > self._rov:
                return min(base, pos - self._rov)
        return base

    def _walk_to_neighbour(self, pos: int) -> None:
        reads = self._neighbour_reads(pos)
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
        best = super()._walk_reads(pos)
        if self._rov is not None:
            best = min(best, abs(pos - self._rov) + 1)
        return best

    def _walk_to_neighbour(self, pos: int) -> None:
        reads = self._walk_reads(pos)
        if self._rov is not None and pos == self._rov:
            reads = 1  # cursor points at the node; prev via back link
        pool = self._pool
        pool.dep_reads += reads
        pool.steps += reads
        pool.dep_writes += 1
        self._rov = pos
