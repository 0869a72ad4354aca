"""Abstract base of the 10-DDT library.

Every DDT in the paper's C++ library exposes the same sequence interface
(add a record, access a record, remove a record) so that swapping the
implementation never changes application behaviour -- "this procedure
does not alter the actual functionality of the application".  We keep
that contract:

* **Functional behaviour** is identical across DDTs: records are held in
  an internal Python list in sequence order, so every implementation
  returns exactly the same values for the same operation sequence.  This
  is asserted by the property-based equivalence tests.
* **Cost behaviour** differs per DDT.  The ten DDTs are three data
  organisations with variants -- arrays (``AR``, ``AR(P)``), linked
  lists (``SLL``, ``DLL``, ``SLL(O)``, ``DLL(O)``) and chunked lists
  (``SLL(AR)``, ``DLL(AR)``, ``SLL(ARO)``, ``DLL(ARO)``).  Each
  organisation is one :class:`OrganisationState` class whose
  ``_model_*`` hooks keep its model state (array capacity, roving
  cursor, chunk fills), allocate and free each DDT's blocks on its
  :class:`~repro.memory.pools.MemoryPool` exactly as the underlying C
  data organisation would (by payload size and count: no block
  handles), and count organisation-level events (adds, gets, shift
  sums, scan visits, locates, splits, one walk or hop sum per walk
  rule ...).  Its ``_price`` charges those events to each DDT by the
  constants that make up a DDT class: pointer words, boxed records,
  roving cursor, walk rule.  The charged interface itself counts one
  DDT call per operation and one compare per key scanned, once per
  structure, and ``get_direct``/``set_direct`` cost the same on every
  DDT, so they are counted once per structure too.

**When counts reach the pools.**  Every allocator call charges its pool
as it happens, because the pool's live bytes, peak and over-free guard
depend on their order.  Everything else stays pending on the structure
until a pool counter is read (any public counter, or
:meth:`repro.memory.profiler.MemoryProfiler.parts`): the pool then asks
every structure attached to it to fold (:meth:`DynamicDataType.fold_counts`),
which adds each lane's priced counts to its pool and zeroes them.  The
counts are integer sums, so folding late equals charging every event as
it happens.

The charged interface is :meth:`~DynamicDataType.append`,
:meth:`~DynamicDataType.insert`, :meth:`~DynamicDataType.get`,
:meth:`~DynamicDataType.set`, :meth:`~DynamicDataType.get_direct`,
:meth:`~DynamicDataType.set_direct`, :meth:`~DynamicDataType.remove_at`
(with ``pop_front``/``pop_back``), the two scans
:meth:`~DynamicDataType.find` (any predicate) and
:meth:`~DynamicDataType.find_key` (key equality, scanned at C level and
charged exactly like the equivalent ``find``), iteration,
:meth:`~DynamicDataType.clear` and :meth:`~DynamicDataType.dispose`.
A disposed structure refuses every one of them.  ``dispose()`` folds
the structure's counts, detaches it from its pools and drops its
organisation states, which never refer back to it, so it dies by
reference counting alone.

The hooks receive positions *before* the functional mutation is applied,
so the item list's length inside a hook is the pre-operation length.

**Lanes.**  One structure can charge several DDTs side by side, each
lane to its own pool (:meth:`DynamicDataType.with_lanes`; a plain
``DDT(pool, spec)`` is the one-lane case).  Every op moves an
organisation's model state alike for all of its DDTs, so the structure
keeps one state per organisation its lanes use: a charged op calls each
of them once (at most three calls for all ten DDTs), then applies the
functional mutation once to the single item list.  A structure's costs
depend only on its own operation stream, so each lane's pool ends up
exactly as in a plain run of its DDT -- which lets one application run
price every candidate DDT of a structure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import indexOf
from typing import Any, Callable, ClassVar, Hashable, Iterator, Sequence

from repro.ddt.records import RecordSpec
from repro.memory.pools import MemoryPool

__all__ = ["DESCRIPTOR_BYTES", "DynamicDataType", "OrganisationState"]

#: Bytes of a list descriptor (head, tail, count, cursor fields).
DESCRIPTOR_BYTES = 16

#: A lane: the DDT charged and the pool it charges.
Lane = tuple[type["DynamicDataType"], MemoryPool]


class _Disposed:
    """The organisations of a disposed structure.

    Every charged op walks its organisations before it counts anything,
    so iterating this refuses the op; live structures pay nothing for it.
    """

    def __iter__(self) -> Iterator[OrganisationState]:
        raise RuntimeError("a disposed structure must not be used again")


_DISPOSED = _Disposed()


class OrganisationState(ABC):
    """Model state and event counts of one data organisation, kept once
    for a structure's ``lanes`` of it (``(DDT class, pool)`` pairs,
    whose base storage the state allocates when built).

    Subclasses name their event counters in ``_events``, implement the
    ``_model_*`` hooks, which count events and allocate and free every
    lane's blocks, and price the counts per DDT in ``_price``.  A state
    holds the structure's item list (the hooks read its length), never
    the structure, so a disposed structure dies by reference counting
    alone.
    """

    #: The event counters, zeroed at every fold.
    _events: ClassVar[tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for name in cls.__dict__.get("_events", ()):
            setattr(cls, name, 0)  # so a fresh state counts from zero

    def __init__(
        self, spec: RecordSpec, items: list[Any], lanes: Sequence[Lane]
    ) -> None:
        self.lanes = tuple(lanes)
        self._items = items
        # Read by nearly every price rule, so bound once per state.
        self._record_words = spec.record_words
        self._key_words = spec.key_words
        self._setup(spec)

    @abstractmethod
    def _setup(self, spec: RecordSpec) -> None:
        """Set the model state and block sizes; allocate base storage."""

    @abstractmethod
    def _model_append(self) -> None:
        """Count an append of one record at the end."""

    @abstractmethod
    def _model_insert(self, pos: int) -> None:
        """Count an insert before ``pos`` (pre-mutation length)."""

    @abstractmethod
    def _model_get(self, pos: int) -> None:
        """Count a full read of the record at ``pos``."""

    @abstractmethod
    def _model_set(self, pos: int) -> None:
        """Count a full overwrite of the record at ``pos``."""

    @abstractmethod
    def _model_remove(self, pos: int) -> None:
        """Count a removal of the record at ``pos``."""

    @abstractmethod
    def _model_scan(self, visited: int, hit: bool) -> None:
        """Count a key scan over the first ``visited`` records (bulk).

        ``hit`` means the last visited record matched and is read fully.
        Counted once per :meth:`~DynamicDataType.find` or
        :meth:`~DynamicDataType.find_key`, so implementations compute
        the traversal cost analytically instead of per element.
        """

    @abstractmethod
    def _model_scan_reset(self) -> None:
        """Count the start of an iteration (cursor to first node)."""

    @abstractmethod
    def _model_iter_step(self, pos: int) -> None:
        """Count reaching ``pos`` during full iteration (the record read
        itself is the same on every DDT and counted by the structure)."""

    @abstractmethod
    def _model_clear(self) -> None:
        """Count releasing all records (structure stays usable)."""

    @abstractmethod
    def _model_dispose(self) -> None:
        """Count releasing records *and* base storage (end of life)."""

    @abstractmethod
    def _price(self, ddt: type[DynamicDataType]) -> tuple[int, int, int, int, int]:
        """``ddt``'s ``(dep_reads, dep_writes, stream_reads,
        stream_writes, steps)`` for the pending counts."""


class DynamicDataType:
    """Common interface + functional storage of all 10 DDTs.

    ``DDT(pool, spec)``, for a library class ``DDT``, is the one-lane
    structure of ``spec`` records on ``pool`` (one pool per dominant
    structure and DDT; see :class:`repro.memory.profiler.MemoryProfiler`),
    built by :meth:`with_lanes` like any other.  A DDT class sets
    :attr:`ddt_name`, :attr:`description`, its :attr:`organisation` and
    the constants that organisation prices it by, and holds no code.
    """

    #: Registry name of the implementation (e.g. ``"AR"``, ``"DLL(O)"``).
    ddt_name: ClassVar[str] = ""
    #: One-line description used by reports.
    description: ClassVar[str] = ""
    #: The state class of the data organisation that models and prices it.
    organisation: ClassVar[type[OrganisationState]]
    # Charges counted once per structure, whatever its lanes.  Every
    # counter is a class default, so a fresh structure counts from zero.
    _calls = 0  # DDT calls other than the direct ones
    _compares = 0
    _direct_gets = 0
    _direct_sets = 0
    _iterated = 0  # records read by iteration

    def __new__(cls, pool: MemoryPool, spec: RecordSpec) -> DynamicDataType:
        return DynamicDataType.with_lanes(spec, ((cls, pool),))

    @staticmethod
    def with_lanes(spec: RecordSpec, lanes: Sequence[Lane]) -> DynamicDataType:
        """A structure of ``spec`` records charging every ``(DDT class,
        pool)`` lane side by side, an instance of its first lane's DDT.

        Each lane needs a pool of its own (else :class:`ValueError`).
        Lanes of one organisation share one state, which keeps their
        counts and allocates their base storage in lane order.
        """
        pools = [pool for _, pool in lanes]
        if len({id(pool) for pool in pools}) < len(pools):
            raise ValueError("two lanes would charge one pool")
        structure = object.__new__(lanes[0][0])
        structure._pool = pools[0]
        structure._spec = spec
        structure._items = items = []
        groups: dict[type[OrganisationState], list[Lane]] = {}
        for lane in lanes:
            groups.setdefault(lane[0].organisation, []).append(lane)
        #: The organisation states every charged op calls, the first
        #: lane's first (``_DISPOSED`` once the structure is disposed).
        structure._orgs = tuple(
            org(spec, items, members) for org, members in groups.items()
        )
        for pool in pools:
            pool.attach(structure)
        return structure

    def fold_counts(self) -> None:
        """Add the pending counts to every lane's pool, then zero them.

        Pools call this before any counter is read; each lane's pool
        gets its DDT's price of its organisation's counts plus the
        charges counted once per structure.  Every charged op, and every
        step of an iteration, leaves one of the latter nonzero, so a
        structure with none of them pending has nothing to fold.
        """
        gets, sets, iterated = self._direct_gets, self._direct_sets, self._iterated
        calls = self._calls + gets + sets
        if not (calls or iterated):
            return
        compares = self._compares
        self._calls = self._compares = 0
        self._direct_gets = self._direct_sets = self._iterated = 0
        words = self._spec.record_words
        for org in self._orgs:
            for ddt, pool in org.lanes:
                dep_reads, dep_writes, stream_reads, stream_writes, steps = org._price(ddt)
                # a direct access: one dependent word, the rest streamed;
                # an iteration step streams the whole record
                pool.add_counts(
                    dep_reads=dep_reads + gets,
                    dep_writes=dep_writes + sets,
                    stream_reads=stream_reads + gets * (words - 1) + iterated * words,
                    stream_writes=stream_writes + sets * (words - 1),
                    ddt_calls=calls,
                    steps=steps + iterated,
                    compares=compares,
                )
            for name in org._events:
                setattr(org, name, 0)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pool(self) -> MemoryPool:
        """The memory pool charged by this structure (its first lane's)."""
        return self._pool

    @property
    def spec(self) -> RecordSpec:
        """The stored record's size description."""
        return self._spec

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def values(self) -> tuple[Any, ...]:
        """Uncharged snapshot of the stored sequence (for tests/debug)."""
        return tuple(self._items)

    # ------------------------------------------------------------------
    # charged sequence interface (the paper's add/access/remove)
    # ------------------------------------------------------------------
    def append(self, value: Any) -> None:
        """Add a record at the end of the sequence."""
        for org in self._orgs:
            org._model_append()
        self._calls += 1
        self._items.append(value)

    def insert(self, pos: int, value: Any) -> None:
        """Insert a record before position ``pos`` (0 <= pos <= len)."""
        if not 0 <= pos <= len(self._items):
            self._out_of_range(pos)
        for org in self._orgs:
            org._model_insert(pos)
        self._calls += 1
        self._items.insert(pos, value)

    def get(self, pos: int) -> Any:
        """Access the record at ``pos`` positionally, reading it fully."""
        if not 0 <= pos < len(self._items):
            self._out_of_range(pos)
        for org in self._orgs:
            org._model_get(pos)
        self._calls += 1
        return self._items[pos]

    def set(self, pos: int, value: Any) -> None:
        """Overwrite the record at ``pos`` positionally."""
        if not 0 <= pos < len(self._items):
            self._out_of_range(pos)
        for org in self._orgs:
            org._model_set(pos)
        self._calls += 1
        self._items[pos] = value

    def get_direct(self, handle: int) -> Any:
        """Access a record through a stable handle -- O(1) everywhere.

        A handle is what client code stores when it keeps long-lived
        references into the structure (an index for arrays, a node
        pointer for lists, a (chunk, offset) pair for chunked lists):
        dereferencing costs one dependent access plus the record stream,
        regardless of the organisation, so it is counted once per
        structure.  The radix tree's child links are the canonical user.

        Handles are only stable while the structure grows append-only;
        positional inserts/removes invalidate them (the caller's
        responsibility, as in C).
        """
        items = self._items
        if not 0 <= handle < len(items):
            self._out_of_range(handle)
        self._direct_gets += 1
        return items[handle]

    def set_direct(self, handle: int, value: Any) -> None:
        """Overwrite a record through a stable handle -- O(1) everywhere."""
        items = self._items
        if not 0 <= handle < len(items):
            self._out_of_range(handle)
        self._direct_sets += 1
        items[handle] = value

    def remove_at(self, pos: int) -> Any:
        """Remove and return the record at ``pos``."""
        if not 0 <= pos < len(self._items):
            self._out_of_range(pos)
        for org in self._orgs:
            org._model_remove(pos)
        self._calls += 1
        return self._items.pop(pos)

    def pop_front(self) -> Any:
        """Remove and return the first record (queue head)."""
        return self.remove_at(0)

    def pop_back(self) -> Any:
        """Remove and return the last record (stack top)."""
        return self.remove_at(len(self._items) - 1)

    def find(self, predicate: Callable[[Any], bool]) -> tuple[int, Any] | None:
        """Scan for the first record satisfying ``predicate``.

        Models a key-comparison scan with early exit: each visited
        record costs a key read plus the organisation's traversal cost
        (charged in bulk by ``_model_scan``); the matching record, when
        found, is read fully.  Returns ``(pos, record)`` or ``None``.
        """
        hit_pos = -1
        for pos, value in enumerate(self._items):
            if predicate(value):
                hit_pos = pos
                break
        return self._charge_scan(hit_pos)

    def find_key(
        self, key_of: Callable[[Any], Hashable], *keys: Hashable
    ) -> tuple[int, Any] | None:
        """Scan for the first record whose ``key_of(record)`` is one of ``keys``.

        Returns and charges exactly what ``find(lambda r: key_of(r) in
        keys)`` would, but scans at C level when ``key_of`` is a C-level
        getter such as ``operator.itemgetter(0)`` or
        ``operator.attrgetter("key")``.  With more than one key, the
        keys must be hashable.

        >>> from operator import itemgetter
        >>> from repro.ddt import RecordSpec, ddt_class
        >>> from repro.memory.profiler import MemoryProfiler
        >>> pool = MemoryProfiler().new_pool("conn")
        >>> table = ddt_class("SLL")(pool, RecordSpec("conn", size_bytes=8))
        >>> for record in [("a", 1), ("b", 2), ("c", 3)]:
        ...     table.append(record)
        >>> table.find_key(itemgetter(0), "c", "b")
        (1, ('b', 2))
        >>> table.find_key(itemgetter(0), "z") is None
        True
        >>> pool.compares  # two records visited, then all three
        5
        """
        scanned = map(key_of, self._items)
        try:
            if len(keys) == 1:
                hit_pos = indexOf(scanned, keys[0])
            else:
                hit_pos = indexOf(map(frozenset(keys).__contains__, scanned), True)
        except ValueError:  # no record matched
            hit_pos = -1
        return self._charge_scan(hit_pos)

    def _charge_scan(self, hit_pos: int) -> tuple[int, Any] | None:
        """Charge a scan that stopped at ``hit_pos`` (-1: a miss)."""
        items = self._items
        hit = hit_pos >= 0
        visited = hit_pos + 1 if hit else len(items)
        for org in self._orgs:
            org._model_scan(visited, hit)
        self._calls += 1
        self._compares += visited
        if not hit:
            return None
        return hit_pos, items[hit_pos]

    def __iter__(self) -> Iterator[Any]:
        """Charged full iteration: every record is read entirely."""
        orgs = self._orgs
        for org in orgs:
            org._model_scan_reset()
        self._calls += 1
        for pos, value in enumerate(self._items):
            for org in orgs:
                org._model_iter_step(pos)
            self._iterated += 1
            yield value

    def clear(self) -> None:
        """Remove all records; the structure stays usable."""
        for org in self._orgs:
            org._model_clear()
        self._calls += 1
        self._items.clear()

    def dispose(self) -> None:
        """Destroy the structure, releasing *all* of its storage.

        Used when a structure dies with its owner (e.g. a per-flow
        packet queue when the flow goes idle).  A disposed structure
        must not be used again: every charged op on it, a second
        ``dispose`` included, raises :class:`RuntimeError`.  Its counts
        are folded into its pools, which then forget it, and it drops
        its organisation states, so it is freed by reference counting
        alone, with no wait for the cyclic garbage collector.
        """
        orgs = self._orgs
        for org in orgs:
            org._model_dispose()
        self._calls += 1
        self._items.clear()
        self.fold_counts()
        self._orgs = _DISPOSED
        for org in orgs:
            for _, pool in org.lanes:
                pool.detach(self)

    # ------------------------------------------------------------------
    def _out_of_range(self, pos: int) -> None:
        iter(self._orgs)  # a disposed structure says so instead
        raise IndexError(
            f"{self.ddt_name}: position {pos} out of range "
            f"(size {len(self._items)})"
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.ddt_name} "
            f"size={len(self._items)} record={self._spec.size_bytes}B>"
        )
