"""Golden files: the pinned inputs and their exact JSON encoding.

``tests/data/golden_records.json`` pins the ``content_key()`` of a fixed
set of points, generated once from plain ``run_simulation`` and then
never regenerated by the code under test: every other oracle in the
suite compares the simulator with itself, so only a pinned file catches
a drift in the shared charged interface.  The points are every
application's ten ``X+X`` runs on the two smallest traces plus a few
seeded off-diagonal combinations.

``tests/data/golden_ddt_parts.json`` pins, per DDT, the
:class:`~repro.memory.profiler.PoolPart` and the four access counters
of one structure after a fixed op script that reaches every charged op
-- ``clear()`` too, which no application calls.

Floats are stored as ``repr`` strings, so equality is bit for bit.
Regenerate (only when a cost-model change is intended)::

    PYTHONPATH=src python tests/support/golden.py > tests/data/golden_records.json
    PYTHONPATH=src python tests/support/golden.py ddt > tests/data/golden_ddt_parts.json
"""

import dataclasses
import json
import random
import sys

from repro.core.casestudies import CASE_STUDIES
from repro.ddt.base import DynamicDataType
from repro.ddt.records import RecordSpec
from repro.ddt.registry import all_ddt_names, combination_label, ddt_class
from repro.memory.profiler import MemoryProfiler
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


def golden_records():
    """Every golden point's encoded plain-run record, by point id."""
    from repro.core.simulate import SimulationEnvironment, run_simulation

    env = SimulationEnvironment()
    golden = {}
    for app_cls, points in golden_batches():
        for config, assignment in points:
            record = run_simulation(app_cls, config, assignment, env)
            golden[point_id(app_cls, config, assignment)] = encode(record)
    return golden


# ----------------------------------------------------------------------
# per-DDT op script
# ----------------------------------------------------------------------
#: The stored record: six record words, two key words.
DDT_SPEC = RecordSpec("rec", size_bytes=24, key_bytes=8)
#: Length and seed of the op script; ``clear`` runs halfway through.
DDT_OPS = 600
DDT_SEED = 11
#: Draw weights of the script's ops on a non-empty structure (growth
#: biased, so arrays regrow and chunks split); an empty one appends.
OP_WEIGHTS = {
    "append": 4,
    "insert": 3,
    "get": 2,
    "set": 1,
    "get_direct": 1,
    "set_direct": 1,
    "remove_at": 2,
    "pop_front": 1,
    "pop_back": 1,
    "find": 2,
    "iter": 1,
    "iter_part": 1,
}


def ddt_script():
    """The fixed ``(op, pos, value)`` script; ``dispose`` follows it."""
    rng = random.Random(DDT_SEED)
    kinds, weights = zip(*OP_WEIGHTS.items())
    script = []
    size = 0
    for index in range(DDT_OPS):
        if index == DDT_OPS // 2:
            kind = "clear"
        elif size:
            kind = rng.choices(kinds, weights)[0]
        else:
            kind = "append"
        pos = rng.randrange(size + (kind == "insert")) if size else 0
        script.append((kind, pos, rng.randrange(64)))
        if kind in ("append", "insert"):
            size += 1
        elif kind in ("remove_at", "pop_front", "pop_back"):
            size -= 1
        elif kind == "clear":
            size = 0
    return script


def drive(structure, script):
    """Run ``script`` on ``structure``, then dispose of it."""
    for kind, pos, value in script:
        if kind == "append":
            structure.append(value)
        elif kind == "insert":
            structure.insert(pos, value)
        elif kind in ("get", "get_direct", "remove_at"):
            getattr(structure, kind)(pos)
        elif kind in ("set", "set_direct"):
            getattr(structure, kind)(pos, value)
        elif kind in ("pop_front", "pop_back", "clear"):
            getattr(structure, kind)()
        elif kind == "find":
            structure.find(lambda item, value=value: item == value)
        elif kind == "iter":
            list(structure)
        else:  # iter_part: stop after the record at ``pos``
            for seen, _ in enumerate(structure):
                if seen == pos:
                    break
    structure.dispose()


def golden_ddt_parts(laned=False):
    """Each DDT's part and access counters after the script, by name.

    One plain instance per DDT, or (``laned``) one instance charging all
    ten DDTs as lanes.
    """
    profiler = MemoryProfiler()
    lanes = [
        (ddt_class(name), profiler.new_pool(DDT_SPEC.name, name))
        for name in all_ddt_names()
    ]
    script = ddt_script()
    if laned:
        drive(DynamicDataType.with_lanes(DDT_SPEC, lanes), script)
    else:
        for ddt, pool in lanes:
            drive(ddt(pool, DDT_SPEC), script)
    golden = {}
    for part, pool in zip(profiler.parts().pools, profiler.pools):
        encoded = {key: _exact(value) for key, value in dataclasses.asdict(part).items()}
        for counter in ("dep_reads", "dep_writes", "stream_reads", "stream_writes"):
            encoded[counter] = getattr(pool, counter)
        golden[part.ddt] = encoded
    return golden


def main(which="records") -> None:
    golden = {"records": golden_records, "ddt": golden_ddt_parts}[which]()
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key])}" for key in sorted(golden)]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
