"""Plain and engine-composed records equal records pinned in a file.

Every other parity test compares the simulator with itself, so a drift
in the shared charged interface (one that moves every DDT's cost the
same way) would pass all of them.  ``tests/data/golden_records.json``
was generated once by plain ``run_simulation`` (see
:mod:`support.golden`); both evaluation paths must reproduce it bit for
bit.  ``tests/data/golden_ddt_parts.json`` pins every DDT's charges for
one op script that reaches every charged op, for plain instances and
for one instance charging all ten DDTs as lanes.
"""

import json
from pathlib import Path

from support.golden import (
    OP_WEIGHTS,
    ddt_script,
    encode,
    golden_batches,
    golden_ddt_parts,
    point_id,
)

from repro.core.engine import ExplorationEngine
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.ddt.registry import all_ddt_names

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_records.json").read_text())
GOLDEN_DDT = json.loads((DATA / "golden_ddt_parts.json").read_text())
BATCHES = golden_batches()


def test_the_points_are_the_pinned_ones():
    ids = [
        point_id(app_cls, config, assignment)
        for app_cls, points in BATCHES
        for config, assignment in points
    ]
    assert len(set(ids)) == len(ids) == len(GOLDEN)
    assert set(ids) == set(GOLDEN)


def test_plain_simulation_matches_golden():
    env = SimulationEnvironment()
    for app_cls, points in BATCHES:
        for config, assignment in points:
            record = run_simulation(app_cls, config, assignment, env)
            assert encode(record) == GOLDEN[point_id(app_cls, config, assignment)]


def test_engine_records_match_golden():
    engine = ExplorationEngine()
    results = [engine.run_batch(app_cls, points) for app_cls, points in BATCHES]
    for (app_cls, points), records in zip(BATCHES, results):
        for (config, assignment), record in zip(points, records):
            assert encode(record) == GOLDEN[point_id(app_cls, config, assignment)]
    assert engine.stats.composed == len(GOLDEN)


def test_the_ddt_script_reaches_every_charged_op():
    kinds = {kind for kind, _, _ in ddt_script()}
    assert kinds == {*OP_WEIGHTS, "clear"}
    assert set(GOLDEN_DDT) == set(all_ddt_names())


def test_plain_ddt_charges_match_golden():
    assert golden_ddt_parts() == GOLDEN_DDT


def test_all_ten_lane_ddt_charges_match_golden():
    assert golden_ddt_parts(laned=True) == GOLDEN_DDT
