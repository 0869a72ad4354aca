"""Separable evaluation: every composed record equals a plain simulation.

The task graph simulates each configuration's cache misses as one lane
run -- every DDT a structure needs, charged side by side -- and
composes every requested point from the lane run's per-pool parts.  The
transport parity sweeps compare against the serial engine, which
composes too, so they cannot catch a composition error on their own;
this file is the oracle, and it checks that lanes never leak into each
other.
"""

import gc
import random
import weakref
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import NetworkApplication
from repro.core.casestudies import CASE_STUDIES
from repro.core.engine import ExplorationEngine
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.core.taskgraph import lane_assignment
from repro.ddt.base import DynamicDataType
from repro.ddt.records import RecordSpec
from repro.ddt.registry import all_ddt_names, combinations, ddt_class
from repro.memory.profiler import MemoryProfiler
from repro.net.config import NetworkConfig

LIBRARY = all_ddt_names()
SMALL_TRACES = ("Whittemore", "Sudikoff")


def _oracle_batches(seed):
    """Random combo subsets on two configs per app, plus one full 10x10
    sweep and one one-combo group."""
    rng = random.Random(seed)
    full, single = rng.sample(range(len(CASE_STUDIES)), 2)
    batches = []
    for index, study in enumerate(CASE_STUDIES):
        structures = study.app_cls.dominant_structures
        combos = list(combinations(structures, LIBRARY))
        params = study.configs[0].app_params
        first, second = (NetworkConfig(t, params) for t in SMALL_TRACES)
        chosen = combos if index == full else rng.sample(combos, rng.randint(2, 12))
        points = [(first, combo) for combo in chosen]
        if index == single:
            points.append((second, rng.choice(combos)))
        else:
            points += [(second, c) for c in rng.sample(combos, rng.randint(2, 12))]
        batches.append((study.app_cls, points, None))
    return batches


def test_engine_records_equal_plain_simulation():
    batches = _oracle_batches(seed=12)
    engine = ExplorationEngine()
    results = [engine.run_batch(app_cls, points) for app_cls, points, _ in batches]
    oracle = SimulationEnvironment()
    for (app_cls, points, _), records in zip(batches, results):
        for (config, assignment), record in zip(points, records):
            plain = run_simulation(app_cls, config, assignment, oracle)
            assert record.content_key() == plain.content_key()
    total = sum(len(points) for _, points, _ in batches)
    assert engine.stats.composed == engine.stats.points == total
    # one lane run per (app, trace): every app has points on both traces
    assert engine.stats.simulations == len(batches) * len(SMALL_TRACES) == 8


def test_cover_gives_every_structure_each_needed_ddt():
    structures = ("a", "b")
    sweep = [{"a": x, "b": y} for x in LIBRARY for y in LIBRARY]
    assert lane_assignment(structures, sweep) == {"a": LIBRARY, "b": LIBRARY}
    uneven = [{"a": "AR", "b": "SLL"}, {"a": "DLL", "b": "SLL"}]
    assert lane_assignment(structures, uneven) == {
        "a": ("AR", "DLL"),
        "b": ("SLL",),
    }


@pytest.mark.parametrize("study", CASE_STUDIES, ids=lambda study: study.name)
def test_every_lane_equals_its_one_lane_run(study):
    """One run over the full library gives every (structure, DDT) the
    part a plain run of that DDT gives it -- for DRR too, whose
    per-flow ``packet_buf`` instances all charge one pool per lane."""
    app_cls = study.app_cls
    structures = app_cls.dominant_structures
    config = NetworkConfig(SMALL_TRACES[0], study.configs[0].app_params)
    env = SimulationEnvironment()
    laned = run_simulation(app_cls, config, dict.fromkeys(structures, LIBRARY), env)
    parts = {(part.name, part.ddt): part for part in laned.parts.pools}
    assert len(parts) == len(laned.parts.pools) == len(structures) * len(LIBRARY)
    for ddt in LIBRARY:
        plain = run_simulation(app_cls, config, dict.fromkeys(structures, ddt), env)
        assert plain.stats == laned.stats
        assert plain.parts.base_cycles == laned.parts.base_cycles
        assert [part.name for part in plain.parts.pools] == list(structures)
        for part in plain.parts.pools:
            assert parts[(part.name, ddt)] == part
    if app_cls.name == "DRR":
        assert laned.stats["flows_created"] > 1


def test_lane_record_is_its_first_lane_combination():
    study = CASE_STUDIES[0]
    structures = study.app_cls.dominant_structures
    config = NetworkConfig(SMALL_TRACES[0], study.configs[0].app_params)
    lanes = {structures[0]: ("DLL(O)", "AR"), structures[1]: ("SLL(AR)",)}
    laned = run_simulation(study.app_cls, config, lanes)
    first = {structures[0]: "DLL(O)", structures[1]: "SLL(AR)"}
    assert laned.content_key() == run_simulation(study.app_cls, config, first).content_key()


ROVING_PAIRS = [
    ("SLL(O)", "SLL"),
    ("DLL", "DLL(O)"),
    ("SLL(ARO)", "SLL(AR)"),
    ("DLL(AR)", "DLL(ARO)"),
]


@pytest.mark.parametrize("names", ROVING_PAIRS, ids="+".join)
def test_roving_lane_keeps_its_own_cursor(names):
    """A roving DDT charged next to its plain variant ends with the
    pool counters of its own one-lane instance: no cursor leaks."""
    spec = RecordSpec("rec", size_bytes=24, key_bytes=4)
    rng = random.Random(5)
    ops = []
    size = 0
    for _ in range(600):
        # clear ("c") is rare, so the lists still grow long between clears
        kind = rng.choice("aaigrfsx" * 10 + "c" if size else "a")
        pos = rng.randrange(size) if size else 0
        ops.append((kind, pos, rng.randrange(64)))
        size = 0 if kind == "c" else size + {"a": 1, "i": 1, "r": -1}.get(kind, 0)

    def drive(structure):
        for kind, pos, value in ops:
            if kind == "a":
                structure.append(value)
            elif kind == "i":
                structure.insert(pos, value)
            elif kind == "g":
                structure.get(pos)
            elif kind == "r":
                structure.remove_at(pos)
            elif kind == "f":
                structure.find(lambda item, value=value: item == value)
            elif kind == "s":
                structure.set(pos, value)
            elif kind == "c":
                structure.clear()
            else:
                list(structure)
        structure.dispose()

    profiler = MemoryProfiler()
    lanes = [(ddt_class(name), profiler.new_pool("rec", name)) for name in names]
    drive(DynamicDataType.with_lanes(spec, lanes))
    for ddt, pool in lanes:
        alone = ddt(MemoryProfiler().new_pool("rec", ddt.ddt_name), spec)
        drive(alone)
        assert pool.snapshot() == alone.pool.snapshot()


def test_disposed_lanes_die_with_their_last_reference():
    """A disposed multi-lane structure is freed by reference counting
    alone: with the cyclic collector off, neither the structure nor any
    of its organisation states outlives the last reference to it."""
    spec = RecordSpec("rec", size_bytes=24, key_bytes=4)
    profiler = MemoryProfiler()
    gc.collect()
    gc.disable()
    try:
        lanes = [(ddt_class(name), profiler.new_pool("rec", name)) for name in LIBRARY]
        structure = DynamicDataType.with_lanes(spec, lanes)
        for value in range(20):
            structure.append(value)
        structure.find(lambda item: item == 7)
        refs = [weakref.ref(structure), *map(weakref.ref, structure._orgs)]
        assert len(refs) == 4  # the array, linked and chunked states
        structure.dispose()
        del structure
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


SPEC = RecordSpec("rec", size_bytes=24, key_bytes=4)


def test_join_refuses_two_lanes_on_one_pool():
    """Two lanes on one pool are refused before either allocates."""
    pool = MemoryProfiler().new_pool("rec")
    lanes = [(ddt_class("AR"), pool), (ddt_class("SLL"), pool)]
    with pytest.raises(ValueError, match="one pool"):
        DynamicDataType.with_lanes(SPEC, lanes)
    assert pool.live_blocks == pool.allocator_calls == 0


@pytest.mark.parametrize("name", LIBRARY)
def test_counters_read_mid_iteration_include_every_step(name):
    """A counter read folds whatever is pending, iteration steps alone
    included: ``steps`` read after each record rises by one per record."""
    pool = MemoryProfiler().new_pool("rec", name)
    structure = ddt_class(name)(pool, SPEC)
    for value in range(12):
        structure.append(value)
    before = pool.steps
    for seen, _ in enumerate(structure, start=1):
        assert pool.steps == before + seen


#: Every charged op a lane-set script draws from; ``*_near`` ops aim at
#: the last position accessed, where a roving cursor sits.  Accesses
#: that set or use a cursor are listed three times, so they are drawn
#: more often than the removals and clears that drop it.
SCRIPT_OPS = (
    *("get", "set", "find", "find_key", "insert_near") * 3,
    "append", "insert", "get_direct", "set_direct", "remove_at",
    "remove_near", "pop_front", "pop_back", "find_keys", "iter",
    "iter_part", "clear", "dispose", "snapshot",
)
#: The ops that also run on an empty instance (the rest append instead).
EMPTY_OPS = {"find", "find_key", "find_keys", "iter", "iter_part", "clear", "dispose"}


@st.composite
def lane_scripts(draw):
    """An ordered lane set, an instance count and an op script that
    first fills each instance past a few chunks."""
    order = draw(st.permutations(LIBRARY))
    names = tuple(order[: draw(st.integers(1, len(LIBRARY)))])
    count = draw(st.integers(1, 3))
    fill = [
        (index, "append", value)
        for index in range(count)
        for value in range(draw(st.integers(0, 36)))
    ]
    ops = st.tuples(
        st.integers(0, count - 1),
        st.sampled_from(SCRIPT_OPS),
        st.integers(0, 10**6),
    )
    return names, count, fill + draw(st.lists(ops, min_size=10, max_size=80))


def _run_script(make, count, script, pools):
    """Drive ``count`` instances from ``make`` through ``script``;
    returns every pool's snapshot at each ``snapshot`` op and at the end.

    Records are ``(key, value)`` pairs.  A disposed instance is replaced
    by a fresh one, as DRR replaces an idle flow's queue.
    """
    structures = [make() for _ in range(count)]
    last = [0] * count  # the last position each instance accessed
    seen = []
    for index, op, value in script:
        structure = structures[index]
        size = len(structure)
        record = (value % 40, value)
        near = min(max(last[index] + value % 3 - 1, 0), size)
        if op == "snapshot":  # read the pools starting at a drawn lane
            first = value % len(pools)
            order = [*range(first, len(pools)), *range(first)]
            snapshots = {lane: pools[lane].snapshot() for lane in order}
            seen.append([snapshots[lane] for lane in range(len(pools))])
        elif op == "append" or not (size or op in EMPTY_OPS):
            structure.append(record)
        elif op in ("insert", "insert_near"):
            pos = near if op == "insert_near" else value % (size + 1)
            structure.insert(pos, record)
            last[index] = pos
        elif op in ("get", "get_direct", "remove_at"):
            last[index] = value % size
            getattr(structure, op)(value % size)
        elif op in ("set", "set_direct"):
            last[index] = value % size
            getattr(structure, op)(value % size, record)
        elif op == "remove_near":
            last[index] = min(near, size - 1)
            structure.remove_at(last[index])
        elif op in ("pop_front", "pop_back"):
            getattr(structure, op)()
        elif op == "find":
            hit = structure.find(lambda item, key=record[0]: item[0] == key)
            last[index] = hit[0] if hit else last[index]
        elif op in ("find_key", "find_keys"):
            keys = (record[0],) if op == "find_key" else (record[0], value % 7)
            hit = structure.find_key(itemgetter(0), *keys)
            last[index] = hit[0] if hit else last[index]
        elif op == "iter":
            list(structure)
        elif op == "iter_part":
            for seen_pos, _ in enumerate(structure):
                if seen_pos == value % (size + 1):
                    break
        elif op == "clear":
            structure.clear()
        else:  # dispose, and a fresh instance takes its place
            structure.dispose()
            structures[index] = make()
    seen.append([pool.snapshot() for pool in pools])
    return seen


@settings(max_examples=100, deadline=None)
@given(lane_scripts())
def test_lane_sets_of_any_shape_equal_their_plain_runs(case):
    """Any ordered lane set (any DDT may come first in its
    organisation), with several instances sharing each pool, charges
    every pool exactly as plain runs of its DDT do, at every point of
    the script."""
    names, count, script = case
    laned = MemoryProfiler()
    lane_pools = [laned.new_pool("rec", name) for name in names]
    lanes = [(ddt_class(name), pool) for name, pool in zip(names, lane_pools)]
    laned_seen = _run_script(
        lambda: DynamicDataType.with_lanes(SPEC, lanes), count, script, lane_pools
    )
    for lane, name in enumerate(names):
        pool = MemoryProfiler().new_pool("rec", name)
        plain_seen = _run_script(lambda: ddt_class(name)(pool, SPEC), count, script, [pool])
        assert [snapshots[lane] for snapshots in laned_seen] == [
            snapshots[0] for snapshots in plain_seen
        ], name


class _AssignmentCharging(NetworkApplication):
    """Breaks the contract: an app-level charge that depends on its DDTs."""

    name = "AssignmentCharging"
    dominant_structures = ("table",)
    record_specs = {"table": RecordSpec("table", size_bytes=16, key_bytes=4)}

    def setup(self) -> None:
        self._table = self.make_structure("table")
        self.profiler.charge_cpu(len(self.assignment["table"]))

    def process(self, packet) -> None:
        self._table.append(packet.size_bytes)


def test_assignment_dependent_app_charge_raises():
    """An app cannot read its DDT assignment, so it cannot charge by it:
    the run fails loudly instead of composing silently."""
    config = NetworkConfig("Whittemore")
    points = [(config, {"table": "AR"}), (config, {"table": "SLL"})]
    with pytest.raises(AttributeError, match="assignment"):
        ExplorationEngine().run_batch(_AssignmentCharging, points)
