"""perfbench still finds every function it times.

``perfbench/layers.py`` times the program by wrapping public names
(``install_coordinator`` in the campaign process, ``install_worker`` in
a queue worker).  A wrapper whose target moved is skipped with a "not
wrapped" line, which would silently zero that layer's metrics; these
tests fail instead.  They load ``layers.py`` by path, write no bytecode
and change nothing under ``perfbench/``.
"""

import importlib.util
import os
import sys

import pytest

from repro.core.campaign import CampaignScheduler
from repro.net.config import NetworkConfig

PERFBENCH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"
)

#: One app on the smallest trace with a narrow library: a few lane runs.
TINY = {
    "studies": ["url"],
    "candidates": ["AR", "SLL", "DLL"],
    "configs": {"URL": [NetworkConfig("Whittemore"), NetworkConfig("Sudikoff")]},
}


@pytest.fixture()
def perfbench(monkeypatch):
    """``(layers, tracing)`` loaded from ``perfbench/`` by path."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)  # layers imports tracing by name
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(PERFBENCH, "layers.py")
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    try:
        yield layers, sys.modules["tracing"]
    finally:
        for name in set(sys.modules) - before:
            del sys.modules[name]


def _traced_campaign(perfbench, **kwargs):
    layers, tracing = perfbench
    recorder = tracing.Recorder("test")
    layers.install_coordinator(recorder)
    try:
        with CampaignScheduler(**TINY, **kwargs) as campaign:
            result = campaign.run()
    finally:
        recorder.uninstall()
    return recorder, result


def _named(recorder, name):
    return [span for span in recorder.spans if span["name"] == name]


def test_serial_campaign_times_every_lane_run(perfbench):
    recorder, result = _traced_campaign(perfbench, workers=0)
    assert recorder.missing == []
    assert result.stats.simulations > 0
    assert len(_named(recorder, "run_simulation")) == result.stats.simulations


def test_pool_campaign_times_its_submissions(perfbench):
    recorder, result = _traced_campaign(perfbench, workers=1)
    assert recorder.missing == []
    chunks = _named(recorder, "LocalPoolTransport.submit_chunk")
    assert chunks
    assert sum(span["args"]["points"] for span in chunks) == result.stats.simulations
    assert _named(recorder, "run_simulation") == []  # runs in pool processes


def test_worker_wrap_points_exist(perfbench):
    layers, tracing = perfbench
    recorder = tracing.Recorder("worker")
    layers.install_worker(recorder)
    recorder.uninstall()
    assert recorder.missing == []
