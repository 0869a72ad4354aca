"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/selftest.py -q`` from the
checkout root (the file name keeps them out of the program's default
test collection).  The smoke tests run every workload at ``--scale
tiny``, untraced and traced; they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402
from inpoint import split_self_time  # noqa: E402
from metrics import GATED, PER_LAYER  # noqa: E402
from tracing import covered, self_times, tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK_JSON = os.path.join(env.ROOT, "BENCHMARK.json")


def _benchmark() -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = env.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match_benchmark_json():
    declared = [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in _benchmark()["end_to_end"]
    ]
    assert declared == [(m.name, m.unit, m.better, m.bound) for m in GATED]


def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in _benchmark()["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in PER_LAYER]


def test_command_names_only_the_benchmark_directory():
    spec = _benchmark()
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def _span(sid, parent, layer, start, end, pid=1):
    return {
        "id": sid, "parent": parent, "layer": layer, "name": sid,
        "start": start, "end": end, "pid": pid, "tid": 1, "args": {},
    }


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert covered([], 0, 10) == 0.0


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span("root", None, "campaign", 0.0, 10.0),
        _span("a", "root", "engine", 1.0, 4.0),
        _span("b", "root", "engine", 3.0, 6.0),  # overlaps a
        _span("a1", "a", "simulate", 2.0, 3.0),
        _span("other", None, "journal", 20.0, 21.5, pid=2),  # another process
    ]
    selfs = self_times(spans)
    # root: 10 minus the union [1, 6] of its children.
    assert selfs["campaign"] == pytest.approx(5.0)
    # a: 3 minus its child's 1; b: 3 with no children.
    assert selfs["engine"] == pytest.approx(5.0)
    assert selfs["simulate"] == pytest.approx(1.0)
    assert selfs["journal"] == pytest.approx(1.5)


def test_tail_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == (90.0, 90.0, 100)
    assert tail(values * 10) == (99.0, 99.0, 1000)
    assert tail([1.0, 2.0, 3.0]) == (2.0, 50.0, 3)


def test_builtin_self_time_goes_to_its_callers_packages():
    ddt = ("/x/src/repro/ddt/linked.py", 10, "find")
    mem = ("/x/src/repro/memory/pools.py", 5, "charge")
    builtin = ("~", 0, "<method 'append' of 'list' objects>")

    class Stats:
        stats = {
            ddt: (1, 1, 2.0, 5.0, {}),
            mem: (1, 1, 1.0, 2.0, {}),
            builtin: (4, 4, 4.0, 4.0, {ddt: (3, 3, 3.0, 3.0), mem: (1, 1, 1.0, 1.0)}),
        }

    totals = split_self_time(Stats())
    assert totals == pytest.approx({"ddt": 5.0, "memory": 2.0})


# ----------------------------------------------------------------------
# smoke
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke(workload, trace):
    proc = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", trace, "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = PER_LAYER if trace == "1" else GATED
    assert list(result["metrics"]) == [m.name for m in expected]
    for metric in expected:
        assert result["metrics"][metric.name]["unit"] == metric.unit
    if trace == "1" and workload == "fleet_queue":
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        assert layer["broker.calls"] > 0 and layer["journal.appends"] > 0
        assert layer["broker.close_s"] > 0 and layer["worker.points"] > 0


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "paper_serial", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
