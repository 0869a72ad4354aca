"""Golden simulation records: the points and their exact JSON encoding.

``tests/data/golden_records.json`` pins the ``content_key()`` of a fixed
set of points, generated once from plain ``run_simulation`` and then
never regenerated by the code under test: every other oracle in the
suite compares the simulator with itself, so only a pinned file catches
a drift in the shared charged interface.

The points are every application's ten ``X+X`` runs on the two smallest
traces plus a few seeded off-diagonal combinations.  Floats are stored
as ``repr`` strings, so equality is bit for bit.

Regenerate (only when a cost-model change is intended)::

    PYTHONPATH=src python tests/support/golden.py > tests/data/golden_records.json
"""

import json
import random
import sys

from repro.core.casestudies import CASE_STUDIES
from repro.ddt.registry import all_ddt_names, combination_label
from repro.net.config import NetworkConfig

#: The two smallest traces: the whole file simulates in a few seconds.
TRACES = ("Whittemore", "Sudikoff")
#: Off-diagonal combinations per application, drawn on the first trace.
OFF_DIAGONAL = 3
SEED = 9


def golden_batches():
    """``(app_cls, [(config, assignment), ...])`` per case study."""
    rng = random.Random(SEED)
    library = all_ddt_names()
    batches = []
    for study in CASE_STUDIES:
        structures = study.app_cls.dominant_structures
        params = study.configs[0].app_params
        configs = [NetworkConfig(trace, params) for trace in TRACES]
        points = [
            (config, {structure: ddt for structure in structures})
            for config in configs
            for ddt in library
        ]
        while len(points) < len(configs) * len(library) + OFF_DIAGONAL:
            combo = {structure: rng.choice(library) for structure in structures}
            if len(set(combo.values())) > 1:
                points.append((configs[0], combo))
        batches.append((study.app_cls, points))
    return batches


def _exact(value):
    return repr(value) if isinstance(value, float) else value


def encode(record):
    """One record's ``content_key()`` as JSON-safe, float-exact data."""
    app, config, combo, metrics, stats = record.content_key()
    return [
        app,
        config,
        combo,
        [_exact(value) for value in metrics.as_tuple()],
        [[key, _exact(value)] for key, value in stats],
    ]


def point_id(app_cls, config, assignment):
    """The JSON key of one point."""
    label = combination_label(assignment, app_cls.dominant_structures)
    return f"{app_cls.name}|{config.label}|{label}"


def main() -> None:
    from repro.core.simulate import SimulationEnvironment, run_simulation

    env = SimulationEnvironment()
    golden = {}
    for app_cls, points in golden_batches():
        for config, assignment in points:
            record = run_simulation(app_cls, config, assignment, env)
            golden[point_id(app_cls, config, assignment)] = encode(record)
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key])}" for key in sorted(golden)]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
