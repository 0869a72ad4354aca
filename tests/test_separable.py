"""Separable evaluation: every composed record equals a plain simulation.

The task graph simulates only a small cover of each configuration's
cache misses and composes every requested point from the cover runs'
per-pool parts.  The transport parity sweeps compare against the serial
engine, which composes too, so they cannot catch a composition error on
their own; this file is the oracle.
"""

import random

import pytest

from repro.apps.base import NetworkApplication
from repro.core.casestudies import CASE_STUDIES
from repro.core.engine import ExplorationEngine
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.core.taskgraph import cover_assignments
from repro.ddt.records import RecordSpec
from repro.ddt.registry import all_ddt_names, combinations
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


@pytest.mark.parametrize("repeats", [1, 2])
def test_engine_records_equal_plain_simulation(repeats):
    batches = _oracle_batches(seed=12)
    engine = ExplorationEngine(env=SimulationEnvironment(repeats=repeats))
    results = engine.run_batches(batches)
    oracle = SimulationEnvironment(repeats=repeats)
    covers = 0
    for (app_cls, points, _), records in zip(batches, results):
        for (config, assignment), record in zip(points, records):
            plain = run_simulation(app_cls, config, assignment, oracle)
            assert record.content_key() == plain.content_key()
        for trace in SMALL_TRACES:
            group = [a for c, a in points if c.trace_name == trace]
            covers += len(cover_assignments(app_cls.dominant_structures, group))
    total = sum(len(points) for _, points, _ in batches)
    assert engine.stats.composed == engine.stats.points == total
    assert engine.stats.simulations == covers < total


def test_cover_gives_every_structure_each_needed_ddt():
    structures = ("a", "b")
    sweep = [{"a": x, "b": y} for x in LIBRARY for y in LIBRARY]
    assert cover_assignments(structures, sweep) == [
        {"a": x, "b": x} for x in LIBRARY
    ]
    uneven = [{"a": "AR", "b": "SLL"}, {"a": "DLL", "b": "SLL"}]
    assert cover_assignments(structures, uneven) == [
        {"a": "AR", "b": "SLL"},
        {"a": "DLL", "b": "SLL"},
    ]


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
    config = NetworkConfig("Whittemore")
    points = [(config, {"table": "AR"}), (config, {"table": "SLL"})]
    with pytest.raises(ValueError, match="AssignmentCharging @ Whittemore.*base cycles"):
        ExplorationEngine().run_batch(_AssignmentCharging, points)
