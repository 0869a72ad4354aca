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
* **Cost behaviour** differs per DDT: each subclass implements the
  ``_model_*`` hooks, counting word reads/writes and loop steps on its
  :class:`~repro.memory.pools.MemoryPool` and allocating blocks from the
  pool's heap exactly as the underlying C data organisation would
  (pointer hops, element shifts, reallocation copies, chunk splits,
  per-node headers).  The charged interface itself counts one DDT call
  per operation and one compare per key scanned.  Charging only adds
  integers to the pool's counters; the profiler prices the counts once,
  when the run's parts are taken
  (:meth:`repro.memory.profiler.MemoryProfiler.parts`).

The charged interface is :meth:`~DynamicDataType.append`,
:meth:`~DynamicDataType.insert`, :meth:`~DynamicDataType.get`,
:meth:`~DynamicDataType.set`, :meth:`~DynamicDataType.get_direct`,
:meth:`~DynamicDataType.set_direct`, :meth:`~DynamicDataType.remove_at`
(with ``pop_front``/``pop_back``), the two scans
:meth:`~DynamicDataType.find` (any predicate) and
:meth:`~DynamicDataType.find_key` (key equality, scanned at C level and
charged exactly like the equivalent ``find``), iteration,
:meth:`~DynamicDataType.clear` and :meth:`~DynamicDataType.dispose`.
A disposed structure refuses every one of them.

The hooks receive positions *before* the functional mutation is applied,
so ``len(self)`` inside a hook is the pre-operation length.

**Lanes.**  One structure instance can charge several DDTs side by side
(:meth:`DynamicDataType.join_lanes`): each charged op runs every lane's
``_model_*`` hooks against that lane's own pool and state, then applies
the functional mutation once to the single item list all lanes share.
A structure's costs depend only on its own operation stream, so each
lane's pool ends up exactly as in a plain run of its DDT -- which lets
one application run price every candidate DDT of a structure.  A plain
instance is the one-lane case.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import indexOf
from typing import Any, Callable, ClassVar, Hashable, Iterator, Sequence

from repro.ddt.records import RecordSpec
from repro.memory.pools import MemoryPool

__all__ = ["DynamicDataType"]


class _DisposedLanes:
    """The lanes of a disposed structure.

    Every charged op walks its lanes before it mutates anything, so
    iterating this refuses the op; live instances pay nothing for it.
    """

    __slots__ = ()

    def __iter__(self) -> Iterator[DynamicDataType]:
        raise RuntimeError("a disposed structure must not be used again")


_DISPOSED = _DisposedLanes()


class DynamicDataType(ABC):
    """Common interface + functional storage of all 10 DDTs.

    Parameters
    ----------
    pool:
        The memory pool this structure lives in (one pool per dominant
        structure; see :class:`repro.memory.profiler.MemoryProfiler`).
    spec:
        Size description of the stored record type.

    Subclasses must set :attr:`ddt_name` (the name used by the registry
    and in all logs, e.g. ``"SLL(O)"``) and implement the ``_model_*``
    cost hooks.
    """

    #: Registry name of the implementation (e.g. ``"AR"``, ``"DLL(O)"``).
    ddt_name: ClassVar[str] = ""
    #: One-line description used by reports.
    description: ClassVar[str] = ""

    def __init__(self, pool: MemoryPool, spec: RecordSpec) -> None:
        self._pool = pool
        self._spec = spec
        # Read by nearly every cost hook, so bound once per instance.
        self._record_words = spec.record_words
        self._key_words = spec.key_words
        self._items: list[Any] = []
        #: The instances whose hooks every charged op runs, this one first
        #: (``_DISPOSED`` once the structure is disposed).
        self._lanes: tuple[DynamicDataType, ...] = (self,)
        self._setup_storage()

    def join_lanes(self, others: Sequence[DynamicDataType]) -> DynamicDataType:
        """Make this instance charge ``others`` as extra lanes; returns it.

        Every instance must be fresh (empty) and charge its own pool.
        From now on ``others`` share this instance's item list and are
        driven only through it: each charged op runs every lane's hooks,
        in lane order, before the one functional mutation.
        """
        for lane in others:
            lane._items = self._items
        self._lanes = (self, *others)
        return self

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
        for lane in self._lanes:
            lane._pool.ddt_calls += 1
            lane._model_append()
        self._items.append(value)

    def insert(self, pos: int, value: Any) -> None:
        """Insert a record before position ``pos`` (0 <= pos <= len)."""
        self._check_pos(pos, upper_inclusive=True)
        for lane in self._lanes:
            lane._pool.ddt_calls += 1
            lane._model_insert(pos)
        self._items.insert(pos, value)

    def get(self, pos: int) -> Any:
        """Access the record at ``pos`` positionally, reading it fully."""
        self._check_pos(pos)
        for lane in self._lanes:
            lane._pool.ddt_calls += 1
            lane._model_get(pos)
        return self._items[pos]

    def set(self, pos: int, value: Any) -> None:
        """Overwrite the record at ``pos`` positionally."""
        self._check_pos(pos)
        for lane in self._lanes:
            lane._pool.ddt_calls += 1
            lane._model_set(pos)
        self._items[pos] = value

    def get_direct(self, handle: int) -> Any:
        """Access a record through a stable handle -- O(1) everywhere.

        A handle is what client code stores when it keeps long-lived
        references into the structure (an index for arrays, a node
        pointer for lists, a (chunk, offset) pair for chunked lists):
        dereferencing costs one dependent access plus the record stream,
        regardless of the organisation.  The radix tree's child links
        are the canonical user.

        Handles are only stable while the structure grows append-only;
        positional inserts/removes invalidate them (the caller's
        responsibility, as in C).
        """
        self._check_pos(handle)
        for lane in self._lanes:
            pool = lane._pool
            pool.ddt_calls += 1
            pool.dep_reads += 1
            pool.stream_reads += lane._record_words - 1
        return self._items[handle]

    def set_direct(self, handle: int, value: Any) -> None:
        """Overwrite a record through a stable handle -- O(1) everywhere."""
        self._check_pos(handle)
        for lane in self._lanes:
            pool = lane._pool
            pool.ddt_calls += 1
            pool.dep_writes += 1
            pool.stream_writes += lane._record_words - 1
        self._items[handle] = value

    def remove_at(self, pos: int) -> Any:
        """Remove and return the record at ``pos``."""
        self._check_pos(pos)
        for lane in self._lanes:
            lane._pool.ddt_calls += 1
            lane._model_remove(pos)
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
        for lane in self._lanes:
            pool = lane._pool
            pool.ddt_calls += 1
            pool.compares += visited
            lane._model_scan(visited, hit)
        if not hit:
            return None
        return hit_pos, items[hit_pos]

    def __iter__(self) -> Iterator[Any]:
        """Charged full iteration: every record is read entirely."""
        lanes = self._lanes
        for lane in lanes:
            lane._pool.ddt_calls += 1
            lane._model_scan_reset()
        for pos, value in enumerate(self._items):
            for lane in lanes:
                lane._model_iter_step(pos)
            yield value

    def clear(self) -> None:
        """Remove all records; the structure stays usable."""
        for lane in self._lanes:
            lane._pool.ddt_calls += 1
            lane._model_clear()
        self._items.clear()

    def dispose(self) -> None:
        """Destroy the structure, releasing *all* of its storage.

        Used when a structure instance dies with its owner (e.g. a
        per-flow packet queue when the flow goes idle).  A disposed
        structure must not be used again: every charged op on it, a
        second ``dispose`` included, raises :class:`RuntimeError`.  Its
        lanes are unlinked, so the instances are freed by reference
        counting alone, with no wait for the cyclic garbage collector.
        """
        lanes = self._lanes
        for lane in lanes:
            lane._pool.ddt_calls += 1
            lane._model_dispose()
        self._items.clear()
        for lane in lanes:
            lane._lanes = _DISPOSED

    # ------------------------------------------------------------------
    def _check_pos(self, pos: int, upper_inclusive: bool = False) -> None:
        upper = len(self._items) + (1 if upper_inclusive else 0)
        if not 0 <= pos < upper:
            iter(self._lanes)  # a disposed structure says so instead
            raise IndexError(
                f"{self.ddt_name}: position {pos} out of range "
                f"(size {len(self._items)})"
            )

    # ------------------------------------------------------------------
    # cost/storage hooks -- one implementation per data organisation
    # ------------------------------------------------------------------
    @abstractmethod
    def _setup_storage(self) -> None:
        """Allocate the organisation's base storage (called once)."""

    @abstractmethod
    def _model_append(self) -> None:
        """Charge an append of one record at the end."""

    @abstractmethod
    def _model_insert(self, pos: int) -> None:
        """Charge an insert before ``pos`` (pre-mutation length)."""

    @abstractmethod
    def _model_get(self, pos: int) -> None:
        """Charge a full read of the record at ``pos``."""

    @abstractmethod
    def _model_set(self, pos: int) -> None:
        """Charge a full overwrite of the record at ``pos``."""

    @abstractmethod
    def _model_remove(self, pos: int) -> None:
        """Charge a removal of the record at ``pos``."""

    @abstractmethod
    def _model_scan(self, visited: int, hit: bool) -> None:
        """Charge a key scan over the first ``visited`` records (bulk).

        ``hit`` means the last visited record matched and is read fully.
        Charged once per :meth:`find` or :meth:`find_key`, so
        implementations compute the traversal cost analytically instead
        of per element.
        """

    @abstractmethod
    def _model_scan_reset(self) -> None:
        """Charge the start of an iteration (cursor to first node)."""

    @abstractmethod
    def _model_iter_step(self, pos: int) -> None:
        """Charge visiting ``pos`` during full iteration (record read)."""

    @abstractmethod
    def _model_clear(self) -> None:
        """Charge releasing all records (structure stays usable)."""

    @abstractmethod
    def _model_dispose(self) -> None:
        """Charge releasing records *and* base storage (end of life)."""

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.ddt_name} "
            f"size={len(self._items)} record={self._spec.size_bytes}B>"
        )
