"""One repetition in a fresh interpreter.

``python3 perfbench/rep.py SPEC.json OUT.json`` reads a spec written by
``run.py``, performs one step and writes its figures to OUT.json:

* ``mode=rep``: set-up, the measured campaign and its teardown, then
  the output check (outside the timed region).  With ``trace`` the
  layer wrappers are installed first and the spans written to
  ``spans_dir``.
* ``mode=build``: the ``resume_grid`` warm-cache build.
* ``mode=profile``: the in-point split over a seeded point sample.

A fresh interpreter per repetition makes ``peak_rss_mb`` a per-run
figure and keeps one repetition's state out of the next.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402

#: Points profiled by ``mode=profile``.
PROFILE_POINTS = 24


def run_rep(spec: dict) -> dict:
    import workloads
    from check import check_campaign

    recorder = None
    if spec.get("trace"):
        from layers import install_coordinator
        from tracing import Recorder, write_jsonl

        recorder = Recorder(spec["run_id"])
        install_coordinator(recorder)
    try:
        figures = workloads.REPS[spec["workload"]](spec, workloads.Phases(recorder))
    finally:
        if recorder is not None:
            recorder.uninstall()
            write_jsonl(recorder.spans, os.path.join(spec["spans_dir"], "coordinator.jsonl"))
    result = figures.pop("_result")
    campaign = figures.pop("_campaign")
    inputs = figures.pop("_inputs")
    studies = inputs.studies
    check = check_campaign(
        result,
        studies,
        {s.name: campaign.configs_for(s.name) for s in studies},
        inputs.candidates,
        spec["seed"],
        os.path.join(spec["work"], "check-cache"),
    )
    figures.update(
        pid=os.getpid(),
        points=result.stats.points,
        simulations=result.stats.simulations,
        cache_hits=result.stats.cache_hits,
        attempted=check["attempted"],
        failed=check["failed"],
        notes=check["notes"],
        table1=check["table1"],
        missing_wrappers=recorder.missing if recorder is not None else [],
    )
    return figures


def run_profile(spec: dict) -> dict:
    import workloads
    from inpoint import profile_points, sample_points
    from repro.core.application_level import step1_points

    inputs = workloads.inputs_for(spec["workload"], spec["seed"], spec["scale"])
    points = []
    for study in inputs.studies:
        for config in inputs.configs[study.name]:
            batch, _labels = step1_points(study.app_cls, config, inputs.candidates)
            points.extend((study.app_cls, cfg, assignment) for cfg, assignment in batch)
    sample = sample_points(points, spec["seed"], PROFILE_POINTS)
    return profile_points(sample)


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    env.require_program()
    if spec["mode"] == "build":
        import workloads

        out = workloads.build_warm_cache(spec)
    elif spec["mode"] == "profile":
        out = run_profile(spec)
    else:
        out = run_rep(spec)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
