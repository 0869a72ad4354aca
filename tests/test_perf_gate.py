"""Verdicts of the perf gate, ``benchmarks/check_regression.py``.

The gate is loaded by path and fed synthetic perfbench runs (exit code,
result line and ``result.json`` record); no benchmark runs here.
"""

import importlib.util
import json
import os

import pytest

GATE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "check_regression.py",
)
_spec = importlib.util.spec_from_file_location("check_regression", GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "points_per_s", "better": "higher", "bound": 0.25},
    {"name": "simulations", "better": "lower", "bound": 0.05},
]
WALL = [10.0, 10.1, 9.9]
RATE = [100.0, 101.0, 99.0]


def run(wall=WALL, rate=RATE, simulations=(376,) * 3, failed=0):
    """One perfbench run as the gate reads it, one value per repetition."""
    reps = [{"simulations": s, "points": 1129, "cache_hits": 0} for s in simulations]
    record = {
        "reps": reps,
        "end_to_end": {
            "wall_s": {"values": list(wall)},
            "points_per_s": {"values": list(rate)},
            "simulations": {"values": [float(s) for s in simulations]},
        },
    }
    attempted = 1129 * len(reps)
    summary = {"correct": not failed, "attempted": attempted, "failed": failed}
    stdout = "end-to-end (tracing off):\n" + json.dumps(summary) + "\n"
    return gate.read_run(1 if failed else 0, stdout, record)


@pytest.mark.parametrize(
    "parent, checkout, failing, unresolved, reason",
    [
        pytest.param(run(), run(wall=[13.0, 13.1, 12.9]), {"wall_s"}, set(),
                     "wall_s +30.0% worse", id="wall-30pct-worse-fails"),
        pytest.param(run(), run(wall=[12.0, 12.1, 11.9]), set(), set(), None,
                     id="wall-20pct-worse-passes"),
        pytest.param(run(), run(rate=[70.0, 70.7, 69.3]), {"points_per_s"}, set(),
                     "points_per_s +30.0% worse", id="rate-30pct-lower-fails"),
        pytest.param(run(), run(rate=[130.0, 131.3, 128.7]), set(), set(), None,
                     id="rate-30pct-higher-passes"),
        pytest.param(run(wall=[8.0, 10.0, 12.0]), run(wall=[13.0, 13.0, 13.0]),
                     set(), {"wall_s"}, None, id="wide-parent-spread-unresolved"),
        pytest.param(run(), run(simulations=(1129,) * 3), {"simulations"}, set(),
                     "simulations", id="simulations-376-to-1129-fails"),
        pytest.param(run(), run(simulations=(376, 377, 376)), set(), set(),
                     "repetitions disagree on simulations: [376, 377]",
                     id="checkout-reps-disagree-fails"),
        pytest.param(run(), run(failed=3), set(), set(), "3 of 3387 points failed",
                     id="checkout-failed-point-fails"),
        pytest.param(run(failed=3), run(), set(), set(), None,
                     id="parent-failed-point-not-gated"),
    ],
)
def test_verdict(parent, checkout, failing, unresolved, reason, capsys):
    verdict = gate.judge(METRICS, [parent, parent], [checkout, checkout])
    by_verdict = {}
    for row in verdict["rows"]:
        by_verdict.setdefault(row["verdict"], set()).add(row["metric"])
    assert by_verdict.get("FAIL", set()) == failing
    assert by_verdict.get("unresolved", set()) == unresolved
    if reason is None:
        assert verdict["failures"] == []
    else:
        assert any(reason in failure for failure in verdict["failures"])

    gate.print_verdicts({"w": verdict})
    printed = capsys.readouterr().out
    if parent["problems"]:
        assert not verdict["rows"]
        assert "w: parent not gated" in printed
        assert "3 of 3387 points failed" in printed
    else:
        assert [row["metric"] for row in verdict["rows"]] == [m["name"] for m in METRICS]
