"""Functional tests of the 10-DDT library.

The methodology's core invariant: swapping the DDT implementation never
changes what the application computes.  Every implementation must behave
exactly like a Python list for the shared sequence interface.
"""

from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddt import DynamicDataType, RecordSpec, all_ddt_names, ddt_class
from repro.memory.profiler import MemoryProfiler

SPEC = RecordSpec("test_record", size_bytes=32, key_bytes=4)


def make_ddt(name, spec=SPEC):
    profiler = MemoryProfiler()
    pool = profiler.new_pool(name)
    return ddt_class(name)(pool, spec), profiler


def _lane_structure(names):
    """One structure charging every DDT of ``names``, each to its own pool."""
    profiler = MemoryProfiler()
    lanes = [(ddt_class(name), profiler.new_pool("rec", name)) for name in names]
    return DynamicDataType.with_lanes(SPEC, lanes), [pool for _, pool in lanes]


@pytest.fixture(params=all_ddt_names())
def ddt_name(request):
    return request.param


class TestSequenceBasics:
    def test_empty(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        assert len(ddt) == 0
        assert not ddt
        assert list(ddt) == []

    def test_append_and_get(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(50):
            ddt.append(i * 10)
        assert len(ddt) == 50
        for i in range(50):
            assert ddt.get(i) == i * 10

    def test_insert_positions(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        reference = []
        for i, pos in enumerate([0, 0, 1, 3, 2, 0, 5]):
            ddt.insert(pos, i)
            reference.insert(pos, i)
        assert list(ddt) == reference

    def test_insert_at_end_equals_append(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        ddt.insert(0, "a")
        ddt.insert(1, "b")
        assert list(ddt) == ["a", "b"]

    def test_set_overwrites(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(10):
            ddt.append(i)
        ddt.set(4, 999)
        assert ddt.get(4) == 999
        assert len(ddt) == 10

    def test_remove_returns_value(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(10):
            ddt.append(i)
        assert ddt.remove_at(3) == 3
        assert list(ddt) == [0, 1, 2, 4, 5, 6, 7, 8, 9]

    def test_pop_front_and_back(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(5):
            ddt.append(i)
        assert ddt.pop_front() == 0
        assert ddt.pop_back() == 4
        assert list(ddt) == [1, 2, 3]

    def test_get_direct_matches_get(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(20):
            ddt.append(i)
        for i in range(20):
            assert ddt.get_direct(i) == ddt.get(i)

    def test_set_direct(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(5):
            ddt.append(i)
        ddt.set_direct(2, "x")
        assert ddt.get(2) == "x"

    def test_clear_empties_but_stays_usable(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(20):
            ddt.append(i)
        ddt.clear()
        assert len(ddt) == 0
        ddt.append("fresh")
        assert ddt.get(0) == "fresh"

    def test_find_first_match(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(30):
            ddt.append(i % 7)
        hit = ddt.find(lambda v: v == 3)
        assert hit == (3, 3)

    def test_find_miss_returns_none(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(10):
            ddt.append(i)
        assert ddt.find(lambda v: v == 100) is None

    def test_find_on_empty(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        assert ddt.find(lambda v: True) is None

    def test_index_errors(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        ddt.append(1)
        with pytest.raises(IndexError):
            ddt.get(1)
        with pytest.raises(IndexError):
            ddt.get(-1)
        with pytest.raises(IndexError):
            ddt.set(5, 0)
        with pytest.raises(IndexError):
            ddt.remove_at(1)
        with pytest.raises(IndexError):
            ddt.insert(3, 0)  # insert upper bound is len

    def test_values_snapshot_uncharged(self, ddt_name):
        ddt, profiler = make_ddt(ddt_name)
        for i in range(10):
            ddt.append(i)
        before = profiler.metrics().accesses
        assert ddt.values() == tuple(range(10))
        assert profiler.metrics().accesses == before


class TestDisposal:
    def test_dispose_releases_all_storage(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(40):
            ddt.append(i)
        ddt.dispose()
        assert ddt.pool.live_bytes == 0
        assert ddt.pool.live_blocks == 0

    def test_dispose_empty_structure(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        ddt.dispose()
        assert ddt.pool.live_bytes == 0

    def test_clear_then_dispose(self, ddt_name):
        ddt, _ = make_ddt(ddt_name)
        for i in range(10):
            ddt.append(i)
        ddt.clear()
        ddt.dispose()
        assert ddt.pool.live_bytes == 0
        assert ddt.pool.live_blocks == 0


_AFTER_DISPOSE = {
    "append": lambda ddt: ddt.append(1),
    "insert": lambda ddt: ddt.insert(0, 1),
    "get": lambda ddt: ddt.get(0),
    "set": lambda ddt: ddt.set(0, 1),
    "get_direct": lambda ddt: ddt.get_direct(0),
    "set_direct": lambda ddt: ddt.set_direct(0, 1),
    "remove_at": lambda ddt: ddt.remove_at(0),
    "pop_front": lambda ddt: ddt.pop_front(),
    "pop_back": lambda ddt: ddt.pop_back(),
    "find": lambda ddt: ddt.find(lambda v: True),
    "find_key": lambda ddt: ddt.find_key(itemgetter(0), 1, 2),
    "iterate": lambda ddt: list(ddt),
    "clear": lambda ddt: ddt.clear(),
    "dispose": lambda ddt: ddt.dispose(),
}


@pytest.mark.parametrize("op", sorted(_AFTER_DISPOSE))
def test_disposed_structure_refuses_every_charged_op(op):
    """A disposed three-lane structure raises instead of charging
    nothing: no pool counter or footprint moves."""
    structure, pools = _lane_structure(("AR", "SLL(O)", "DLL(ARO)"))
    for i in range(12):
        structure.append((i, i))
    structure.dispose()
    before = [pool.snapshot() for pool in pools]
    with pytest.raises(RuntimeError, match="disposed"):
        _AFTER_DISPOSE[op](structure)
    assert [pool.snapshot() for pool in pools] == before
    assert len(structure) == 0


# ---------------------------------------------------------------------------
# property-based equivalence against a reference list
# ---------------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers()),
        st.tuples(st.just("insert"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("get"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("set"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("find"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("iterate"), st.integers()),
        st.tuples(st.just("clear"), st.integers()),
    ),
    max_size=60,
)


@pytest.mark.parametrize("name", all_ddt_names())
@given(ops=_OPS)
@settings(max_examples=25, deadline=None)
def test_equivalence_with_reference_list(name, ops):
    """Every DDT behaves exactly like a Python list under random ops."""
    ddt, _ = make_ddt(name)
    reference: list = []
    counter = 0
    for op, arg in ops:
        counter += 1
        if op == "append":
            ddt.append(arg)
            reference.append(arg)
        elif op == "insert":
            pos = arg % (len(reference) + 1)
            ddt.insert(pos, counter)
            reference.insert(pos, counter)
        elif op == "get" and reference:
            pos = arg % len(reference)
            assert ddt.get(pos) == reference[pos]
        elif op == "set" and reference:
            pos = arg % len(reference)
            ddt.set(pos, counter)
            reference[pos] = counter
        elif op == "remove" and reference:
            pos = arg % len(reference)
            assert ddt.remove_at(pos) == reference.pop(pos)
        elif op == "find":
            expected = next(
                ((i, v) for i, v in enumerate(reference) if v == arg), None
            )
            assert ddt.find(lambda v, a=arg: v == a) == expected
        elif op == "iterate":
            assert list(ddt) == reference
        elif op == "clear":
            ddt.clear()
            reference.clear()
        assert len(ddt) == len(reference)
    assert list(ddt) == reference


# ---------------------------------------------------------------------------
# find_key: the C-level key scan returns and charges what find does
# ---------------------------------------------------------------------------

KEY = itemgetter(0)
#: Stored keys are 0..5; 6 and 7 are never stored, so some scans miss.
_KEYS = st.integers(min_value=0, max_value=7)
_KEY_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _KEYS),
        st.tuples(st.just("insert"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("set"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("find"), st.lists(_KEYS, min_size=1, max_size=3)),
        st.tuples(st.just("iterate"), st.integers()),
        st.tuples(st.just("clear"), st.integers()),
    ),
    max_size=60,
)


def _run_key_script(structure, ops, scan):
    """Drive ``structure`` through ``ops``; returns every op's result."""
    results = []
    for step, (op, arg) in enumerate(ops):
        size = len(structure)
        if op == "append":
            structure.append((arg % 6, step))
        elif op == "insert":
            structure.insert(arg % (size + 1), (step % 6, step))
        elif op == "remove" and size:
            results.append(structure.remove_at(arg % size))
        elif op == "set" and size:
            structure.set(arg % size, (step % 6, step))
        elif op == "find":
            results.append(scan(structure, arg))
        elif op == "iterate":
            results.append(list(structure))
        elif op == "clear":
            structure.clear()
    structure.dispose()
    return results


def _by_find_key(structure, keys):
    return structure.find_key(KEY, *keys)


def _by_find(structure, keys):
    return structure.find(lambda record: KEY(record) in keys)


@pytest.mark.parametrize(
    "names", [(name,) for name in all_ddt_names()] + [tuple(all_ddt_names())],
    ids=lambda names: names[0] if len(names) == 1 else "ten-lanes",
)
@given(ops=_KEY_OPS)
@settings(max_examples=25, deadline=None)
def test_find_key_equals_find(names, ops):
    """``find_key(key_of, *keys)`` returns what ``find(lambda r: key_of(r)
    in keys)`` returns, and leaves every pool's counters and peak
    footprint where ``find`` leaves them."""
    keyed, keyed_pools = _lane_structure(names)
    scanned, scanned_pools = _lane_structure(names)
    assert _run_key_script(keyed, ops, _by_find_key) == _run_key_script(
        scanned, ops, _by_find
    )
    assert [pool.snapshot() for pool in keyed_pools] == [
        pool.snapshot() for pool in scanned_pools
    ]


@pytest.mark.parametrize(
    "stored, keys, expected",
    [
        ([], (3,), None),  # empty structure
        ([], (3, 4), None),
        ([1, 2, 3], (9,), None),  # miss: every record visited
        ([1, 2, 3], (9, 8), None),
        ([1, 2, 3, 4], (4, 2), (1, (2, 1))),  # the later-positioned key first
        ([1, 2, 3, 2], (2, 2), (1, (2, 1))),  # key == reverse
        ([5, 5, 6], (5,), (0, (5, 0))),  # first of equal keys
    ],
)
def test_find_key_edge_cases(ddt_name, stored, keys, expected):
    keyed, keyed_pools = _lane_structure((ddt_name,))
    scanned, scanned_pools = _lane_structure((ddt_name,))
    for structure in (keyed, scanned):
        for serial, key in enumerate(stored):
            structure.append((key, serial))
    assert keyed.find_key(KEY, *keys) == expected
    assert scanned.find(lambda record: KEY(record) in keys) == expected
    assert keyed_pools[0].snapshot() == scanned_pools[0].snapshot()
    assert keyed_pools[0].compares == (expected[0] + 1 if expected else len(stored))


@pytest.mark.parametrize("name", all_ddt_names())
@given(values=st.lists(st.integers(), max_size=80))
@settings(max_examples=20, deadline=None)
def test_fifo_discipline(name, values):
    """Queue usage (append + pop_front) preserves FIFO order."""
    ddt, _ = make_ddt(name)
    for v in values:
        ddt.append(v)
    out = [ddt.pop_front() for _ in range(len(values))]
    assert out == values
