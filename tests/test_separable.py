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

import pytest

from repro.apps.base import NetworkApplication
from repro.core.casestudies import CASE_STUDIES
from repro.core.engine import ExplorationEngine
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.core.taskgraph import lane_assignment
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
    lanes = [ddt_class(name)(profiler.new_pool("rec", name), spec) for name in names]
    drive(lanes[0].join_lanes(lanes[1:]))
    for name, lane in zip(names, lanes):
        alone = ddt_class(name)(MemoryProfiler().new_pool("rec", name), spec)
        drive(alone)
        assert lane.pool.snapshot() == alone.pool.snapshot()


def test_disposed_lanes_die_with_their_last_reference():
    """``dispose()`` unlinks the lanes, so a disposed multi-lane
    structure is freed by reference counting alone: with the cyclic
    collector off, no lane outlives the last reference to it."""
    spec = RecordSpec("rec", size_bytes=24, key_bytes=4)
    profiler = MemoryProfiler()
    gc.collect()
    gc.disable()
    try:
        lanes = [
            ddt_class(name)(profiler.new_pool("rec", name), spec) for name in LIBRARY
        ]
        structure = lanes[0].join_lanes(lanes[1:])
        for value in range(20):
            structure.append(value)
        structure.find(lambda item: item == 7)
        structure.dispose()
        refs = [weakref.ref(lane) for lane in lanes]
        del lanes, structure
        assert [ref() for ref in refs] == [None] * len(LIBRARY)
    finally:
        gc.enable()


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
