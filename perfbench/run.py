"""The exploration benchmark: one command, three workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper_serial --seed 1 --seconds 30 --trace 0

Runs repetitions of the workload, each in a fresh interpreter
(``rep.py``), until ``--seconds`` of campaign wall time are measured
(at least one), checks every repetition's outputs, prints the
end-to-end table (median, quartile spread and repetition count per
metric), and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 1`` instead runs one untraced and one traced repetition plus
the in-point profile, prints the per-layer tables and puts the
per-layer metrics on the JSON line.  Spans are written as JSONL and as
Chrome trace-event JSON under ``.bench_out/<workload>-seed<N>/`` next
to ``result.json`` (figures plus provenance).

Exit codes: 0 when every output check passed; 1 when the program
failed a check or a repetition crashed; 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Any, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402
from metrics import END_TO_END, GATED, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Every run ends well inside three minutes, whatever ``--seconds`` says.
RUN_BUDGET_S = 165.0
#: Measured repetitions stop here even when they are very short.
MAX_REPS = 12


class RepFailed(RuntimeError):
    """A child step crashed or overran the run's time budget."""


class Runner:
    """Owns the run's scratch directory and its child processes."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.started = time.monotonic()
        self.deadline = self.started + RUN_BUDGET_S
        self.work = os.path.join(
            env.ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}"
        )
        self.out = os.path.join(env.ROOT, ".bench_out", f"{workload}-seed{seed}")
        self.run_id = f"{workload}-seed{seed}-{os.getpid()}"
        self._steps = 0
        self._child: subprocess.Popen | None = None

    def __enter__(self) -> "Runner":
        os.makedirs(self.work)
        os.makedirs(self.out, exist_ok=True)
        return self

    def __exit__(self, *exc: object) -> None:
        self.kill_child()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run still uses it

    def kill_child(self) -> None:
        child, self._child = self._child, None
        if child is not None and child.poll() is None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def step(self, mode: str, **extra: Any) -> dict[str, Any]:
        """Run one ``rep.py`` step in a fresh interpreter and return its
        figures; the child and everything it started run in their own
        process group, killed whole if the run's budget runs out."""
        self._steps += 1
        tag = f"{self._steps:02d}-{mode}"
        work = os.path.join(self.work, tag)
        os.makedirs(work)
        spec = {
            "mode": mode,
            "workload": self.workload,
            "seed": self.seed,
            "scale": self.scale,
            "work": work,
            "run_id": self.run_id,
            **extra,
        }
        spec_path = os.path.join(work, "spec.json")
        out_path = os.path.join(work, "out.json")
        log_path = os.path.join(work, "child.log")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        with open(log_path, "wb") as log:
            self._child = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "rep.py"), spec_path, out_path],
                cwd=env.ROOT,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = self._child.wait(timeout=max(1.0, self.left()))
            except subprocess.TimeoutExpired:
                self.kill_child()
                raise RepFailed(f"{tag} overran the {RUN_BUDGET_S:.0f}s run budget")
            self._child = None
        if code != 0 or not os.path.exists(out_path):
            with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
                sys.stderr.write(handle.read()[-4000:])
            raise RepFailed(f"{tag} exited with {code}")
        with open(out_path, "r", encoding="utf-8") as handle:
            return json.load(handle)


# ----------------------------------------------------------------------
def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def end_to_end(reps: Sequence[dict[str, Any]], build_s: float) -> dict[str, list[float]]:
    """Per-repetition values of every end-to-end metric; ``build_s`` is
    set-up paid once per run (the ``resume_grid`` warm-cache build)."""
    series: dict[str, list[float]] = {m.name: [] for m in END_TO_END}
    for rep in reps:
        series["wall_s"].append(rep["wall_s"])
        series["points_per_s"].append(rep["points"] / rep["wall_s"])
        series["simulations"].append(float(rep["simulations"]))
        series["teardown_s"].append(rep["teardown_s"])
        series["setup_s"].append(build_s + rep["setup_s"])
        series["peak_rss_mb"].append(rep["peak_rss_mb"])
        series["failed_frac"].append(rep["failed"] / max(1, rep["attempted"]))
    return series


def print_table(title: str, rows: Sequence[Sequence[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    print(title)
    for row in rows:
        print("  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)))


def measure(args: argparse.Namespace, runner: Runner) -> dict[str, Any]:
    """Every child step of one run: build, repetitions, traced pass."""
    extra: dict[str, Any] = {}
    build_s = 0.0
    if args.workload == "resume_grid":
        extra = {
            "warm_dir": os.path.join(runner.work, "warm"),
            "store_dir": os.path.join(runner.work, "warm-traces"),
        }
        build_s = runner.step("build", **extra)["build_s"]

    reps: list[dict[str, Any]] = []
    measured = 0.0
    while True:
        began = time.monotonic()
        reps.append(runner.step("rep", **extra))
        measured += reps[-1]["wall_s"]
        cost = time.monotonic() - began
        if args.trace or measured >= args.seconds or len(reps) >= MAX_REPS:
            break
        if runner.left() < cost * 1.5 + 20.0:
            break
    run = {"build_s": build_s, "reps": reps, "traced": None}
    if args.trace:
        spans_dir = os.path.join(runner.work, "spans")
        os.makedirs(spans_dir)
        run["traced"] = runner.step("rep", trace=True, spans_dir=spans_dir, **extra)
        run["profile"] = runner.step("profile")
        run["spans"] = merge_spans(spans_dir)
    return run


def report_reps(reps: Sequence[dict[str, Any]], traced: dict[str, Any] | None) -> None:
    for index, rep in enumerate([*reps, *([traced] if traced else [])]):
        label = "traced" if rep is traced else f"rep {index + 1}"
        print(
            f"{label}: {rep['points']} points ({rep['simulations']} simulated, "
            f"{rep['cache_hits']} cached) in {rep['wall_s']:.3f}s, "
            f"teardown {rep['teardown_s']:.3f}s, setup {rep['setup_s']:.3f}s; "
            f"check {rep['attempted'] - rep['failed']}/{rep['attempted']} ok; "
            f"Table 1 {rep['table1']}"
        )
        for note in rep["notes"]:
            print(f"  CHECK FAILED: {note}")


def per_layer(run: dict[str, Any], untraced_wall_s: float, out: str) -> dict[str, float]:
    """Per-layer metrics of the traced pass; writes its span exports."""
    from layers import layer_metrics
    from tracing import write_chrome_trace, write_jsonl

    spans, traced = run["spans"], run["traced"]
    layer = layer_metrics(spans, traced["pid"], traced, untraced_wall_s)
    layer.update(run["profile"])
    write_jsonl(spans, os.path.join(out, "spans.jsonl"))
    write_chrome_trace(spans, os.path.join(out, "trace.json"))
    rows = [["metric", "value", "unit", "moves", "workloads"]]
    for metric in PER_LAYER:
        rows.append(
            [metric.name, f"{layer[metric.name]:.6g}", metric.unit,
             metric.moves, metric.workloads]
        )
    print_table("per-layer (traced repetition):", rows)
    if traced["missing_wrappers"]:
        print(f"  not wrapped (absent): {traced['missing_wrappers']}")
    print(f"spans: {len(spans)} written to {os.path.relpath(out, env.ROOT)}")
    return layer


def run_benchmark(args: argparse.Namespace) -> int:
    from workloads import inputs_for

    probe_start = env.cpu_probe()
    with Runner(args.workload, args.seed, args.scale) as runner:
        run = measure(args, runner)
    reps, traced = run["reps"], run["traced"]
    checked = [*reps, *([traced] if traced else [])]
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    untraced = end_to_end(reps, run["build_s"])
    provenance = {
        **env.provenance(),
        "loadavg_end": os.getloadavg(),
        "cpu_probe_s": [probe_start, env.cpu_probe()],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "scale": args.scale,
        "reps": len(reps),
        "closed_loop": "one campaign at a time from one benchmark process",
        "inputs": inputs_for(args.workload, args.seed, args.scale).describe(),
    }
    print(f"workload {args.workload}  seed {args.seed}  " + json.dumps(provenance))
    report_reps(reps, traced)
    rows = [["metric", "median", "unit", "spread", "reps", "gated"]]
    for metric in END_TO_END:
        values = untraced[metric.name]
        rows.append(
            [metric.name, f"{median(values):.6g}", metric.unit,
             f"{spread(values):.3f}", str(len(values)),
             f"<= +{metric.bound:.0%}" if metric.bound is not None else "no"]
        )
    print_table("end-to-end (tracing off):", rows)

    record: dict[str, Any] = {
        "provenance": provenance,
        "reps": reps,
        "end_to_end": {k: {"median": median(v), "spread": spread(v), "values": v}
                       for k, v in untraced.items()},
    }
    if traced is not None:
        layer = per_layer(run, untraced["wall_s"][0], runner.out)
        record.update(traced=traced, per_layer=layer)
        metrics = {m.name: {"value": layer[m.name], "unit": m.unit} for m in PER_LAYER}
    else:
        metrics = {
            m.name: {"value": median(untraced[m.name]), "unit": m.unit} for m in GATED
        }
    with open(os.path.join(runner.out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def merge_spans(spans_dir: str) -> list[dict[str, Any]]:
    from tracing import read_jsonl

    spans: list[dict[str, Any]] = []
    for name in sorted(os.listdir(spans_dir)):
        spans.extend(read_jsonl(os.path.join(spans_dir, name)))
    return spans


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="DDT exploration benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: a few dozen points per workload (smoke tests)",
    )
    args = parser.parse_args(argv)
    try:
        env.require_program()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return run_benchmark(args)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
