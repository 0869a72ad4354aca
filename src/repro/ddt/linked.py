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

Heap blocks: a list is one descriptor block plus one node block per
stored record, so its node count is its length.

The original NetBench implementations of the paper's benchmarks use
singly linked lists; :data:`repro.ddt.registry.ORIGINAL_DDT` points at
:class:`SinglyLinkedDDT` for that reason.

Shared state: every op moves the four lists alike -- the same nodes are
allocated and freed, and ``SLL(O)`` and ``DLL(O)`` set their cursor in
the same places (the position a get, set, insert or remove reached, the
hit of a scan) and drop it on the same removals, while ``SLL`` and
``DLL`` never read it.  So the organisation keeps one cursor and counts
each event once, with one walk sum per walk rule (from the head, from
the nearer end, and either one or the cursor), and every list prices the
counts by its own rule, pointer words and cursor writes.
"""

from __future__ import annotations

from repro.ddt.base import DESCRIPTOR_BYTES, DynamicDataType, OrganisationState
from repro.ddt.records import WORD_BYTES, RecordSpec

__all__ = [
    "SinglyLinkedDDT",
    "DoublyLinkedDDT",
    "RovingSinglyLinkedDDT",
    "RovingDoublyLinkedDDT",
]


class _LinkedState(OrganisationState):
    """One cursor, the event counts and the blocks of linked-list lanes."""

    _events = (
        "_appends",  # appends, and inserts at the end
        "_inserts",
        "_gets",
        "_sets",
        "_removes",
        "_sll_walks",  # nodes walked from the head
        "_dll_walks",  # ... from the nearer end
        "_sllo_walks",  # ... from the head or the cursor, forwards
        "_dllo_walks",  # ... from the nearest of head, tail and cursor
        "_pointer_loads",  # head or next pointers with no other charge
        "_visited",
        "_hits",
        "_cleared",  # nodes walked to free them
        "_clears",
    )

    def _setup(self, spec: RecordSpec) -> None:
        #: Each lane's pool and node bytes (the record and its links).
        self._nodes = tuple(
            (pool, spec.size_bytes + ddt.ptr_words * WORD_BYTES)
            for ddt, pool in self.lanes
        )
        self._rov: int | None = None
        for _, pool in self.lanes:
            pool.allocate(DESCRIPTOR_BYTES)

    # -- storage ---------------------------------------------------------
    def _alloc_nodes(self) -> None:
        for pool, node in self._nodes:
            pool.allocate(node)

    def _free_nodes(self) -> None:
        nodes = len(self._items)
        if nodes:
            for pool, node in self._nodes:
                pool.free(node, nodes)

    # -- walking -----------------------------------------------------------
    def _walk_to(self, pos: int) -> None:
        """Count each rule's walk to node ``pos``; the cursor moves there."""
        rov = self._rov
        from_tail = len(self._items) - pos
        nearer = from_tail if from_tail <= pos else pos + 1
        self._sll_walks += pos + 1  # head field + pos next-pointers
        self._dll_walks += nearer
        if rov is None:
            self._sllo_walks += pos + 1
            self._dllo_walks += nearer
        else:
            # a singly linked cursor cannot move backwards
            self._sllo_walks += pos - rov + 1 if pos >= rov else pos + 1
            from_cursor = abs(pos - rov) + 1
            self._dllo_walks += from_cursor if from_cursor < nearer else nearer
        self._rov = pos

    def _walk_to_neighbour(self, pos: int) -> None:
        """Count each rule's walk to where an insert/remove at ``pos``
        rewrites pointers; the cursor moves there."""
        rov = self._rov
        from_tail = len(self._items) - pos
        nearer = from_tail if from_tail <= pos else pos + 1
        # singly linked: walk to the predecessor (the head field for 0);
        # doubly linked: the node itself, prev via its back link
        before = pos if pos > 1 else 1
        self._sll_walks += before
        self._dll_walks += nearer
        if rov is None:
            self._sllo_walks += before
            self._dllo_walks += nearer
        elif pos == rov:  # the cursor pair holds the predecessor already
            self._sllo_walks += 1
            self._dllo_walks += 1
        else:
            ahead = pos - rov
            self._sllo_walks += ahead if 0 < ahead < before else before
            from_cursor = abs(ahead) + 1
            self._dllo_walks += from_cursor if from_cursor < nearer else nearer
        self._rov = pos

    # -- cost hooks --------------------------------------------------------
    def _model_append(self) -> None:
        self._appends += 1
        self._alloc_nodes()

    def _model_insert(self, pos: int) -> None:
        if pos == len(self._items):
            self._model_append()  # the cursor sits before the end
            return
        self._walk_to_neighbour(pos)
        self._inserts += 1
        self._alloc_nodes()
        self._rov = pos + 1  # the cursor's node moved up one

    def _model_get(self, pos: int) -> None:
        self._gets += 1
        self._walk_to(pos)

    def _model_set(self, pos: int) -> None:
        self._sets += 1
        self._walk_to(pos)

    def _model_remove(self, pos: int) -> None:
        self._walk_to_neighbour(pos)
        self._removes += 1
        for pool, node in self._nodes:
            pool.free(node)
        self._rov = None  # its node is gone

    def _model_scan(self, visited: int, hit: bool) -> None:
        if visited == 0:
            self._pointer_loads += 1  # empty check reads the head pointer
            return
        self._visited += visited
        if hit:
            self._hits += 1
            self._rov = visited - 1

    def _model_scan_reset(self) -> None:
        self._pointer_loads += 1  # head pointer

    def _model_iter_step(self, pos: int) -> None:
        if pos > 0:
            self._pointer_loads += 1  # next pointer

    def _model_clear(self) -> None:
        # Walk the chain once, freeing every node.
        self._cleared += len(self._items)
        self._clears += 1
        self._free_nodes()
        self._rov = None

    def _model_dispose(self) -> None:
        self._cleared += len(self._items)
        self._free_nodes()
        for _, pool in self.lanes:
            pool.free(DESCRIPTOR_BYTES)
        self._rov = None

    # -- pricing -----------------------------------------------------------
    # Every hop is a dependent pointer load and a loop step; a reached
    # record streams.  An append reads the tail pointer and writes the
    # new node's links, the old tail's link and the tail field; a
    # mid-list insert initialises and relinks ``ptr_words`` links twice
    # and a removal relinks them once.  A roving list also writes its
    # cursor on every get, set, insert, remove and scan hit.
    def _price(self, ddt: type[DynamicDataType]) -> tuple[int, int, int, int, int]:
        words, key, ptr = self._record_words, self._key_words, ddt.ptr_words
        walks = getattr(self, ddt.walk_sum)
        appends, inserts, removes = self._appends, self._inserts, self._removes
        gets, sets, visited, hits = self._gets, self._sets, self._visited, self._hits
        dep_writes = appends * (ptr + 2) + inserts * 2 * ptr + removes * ptr + 2 * self._clears
        if ddt.roving:
            dep_writes += gets + sets + inserts + removes + hits
        return (
            appends + walks + self._pointer_loads + visited + self._cleared,
            dep_writes,
            (gets + removes) * words + visited * key + hits * (words - key),
            (appends + inserts + sets) * words,
            walks + visited + self._cleared,
        )


class _LinkedBase(DynamicDataType):
    """The constants the linked organisation prices a list by."""

    organisation = _LinkedState
    #: Pointer words per node (1 for singly, 2 for doubly linked).
    ptr_words = 1
    #: Whether a cursor to the last accessed position is maintained.
    roving = False
    #: The event counter of the walk rule this list walks by.
    walk_sum = "_sll_walks"


class SinglyLinkedDDT(_LinkedBase):
    """``SLL`` -- singly linked list with head and tail pointers.

    O(1) append; positional access walks from the head; removal walks to
    the predecessor.  This is the paper's "original implementation"
    baseline for the NetBench applications.
    """

    ddt_name = "SLL"
    description = "singly linked list (head+tail)"


class DoublyLinkedDDT(_LinkedBase):
    """``DLL`` -- doubly linked list; walks start from the nearer end."""

    ddt_name = "DLL"
    description = "doubly linked list (walks from nearer end)"
    ptr_words = 2
    walk_sum = "_dll_walks"


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
    walk_sum = "_sllo_walks"


class RovingDoublyLinkedDDT(DoublyLinkedDDT):
    """``DLL(O)`` -- doubly linked list with a roving cursor.

    Walks start from the nearest of head, tail and cursor; the cursor
    moves in both directions.
    """

    ddt_name = "DLL(O)"
    description = "doubly linked list with roving pointer"
    roving = True
    walk_sum = "_dllo_walks"
