"""The perf gate: this checkout against its parent commit.

Runs every workload ``BENCHMARK.json`` declares through
``perfbench/run.py`` on the working tree and on an export of its parent
commit (``HEAD^1``; on a pull request's merge commit, the tip of the
base branch), and applies the benchmark's acceptance rule to each
end-to-end metric ``BENCHMARK.json`` declares:

* The medians of both sides' repetitions are compared in the metric's
  ``better`` direction.  The checkout **fails** when it is worse by more
  than the metric's ``bound`` while the parent's own spread (quartile
  distance over median, as perfbench prints it) is within the bound.
  When the parent's spread is wider than the bound, a worse median is
  **unresolved**: printed, not failed.  ``simulations`` has zero
  spread, so any rise past its bound fails.
* The checkout also fails when perfbench exits non-zero, prints
  ``"correct": false`` or reports a failed point, or when the
  repetitions of one run disagree on ``simulations``, ``points`` or
  ``cache_hits``.  A parent run with such a problem is printed with the
  reason, and that workload is not compared.

Both trees run one benchmark definition: the checkout's ``perfbench/``
and ``BENCHMARK.json`` are copied over the parent's export.  Each
workload runs in ``PAIRS`` parent/checkout pairs, the first pair parent
first, the next checkout first.

The gate also holds the parallel-speedup floor: a warm-store campaign on
``FLOOR_WORKERS`` pool processes must beat the same campaign run
serially by ``SPEEDUP_FLOOR``, wherever the machine has at least that
many cores; elsewhere it prints a named skip with the observed ratio.

Every figure is measured fresh on one machine, so there is no baseline
to keep or refresh.  Run it from a git checkout that holds the parent
commit, with no options; the working tree is the checkout side, so
commit a change before gating it against the commit it sits on::

    python benchmarks/check_regression.py

Writes every run's values and the verdicts to
``benchmarks/out/perf_gate.json``.  Exits 0 when the checkout passes, 1
on any failure and 2 when there is no parent commit to compare against.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles
from typing import Any, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "perf_gate.json")

#: Parent/checkout pairs per workload, alternating which side runs first.
PAIRS = 2
SEED = 1
#: Counters every repetition of one run must report alike.
DETERMINISTIC = ("simulations", "points", "cache_hits")

#: The parallel-speedup floor's campaign: six DDTs, each app's first
#: two configurations, a trace store warmed by one serial pass.
FLOOR_CANDIDATES = ("AR", "SLL", "DLL", "SLL(O)", "DLL(O)", "SLL(AR)")
FLOOR_WORKERS = 4
SPEEDUP_FLOOR = 1.2


class NoParent(RuntimeError):
    """There is no parent commit to compare against."""


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median, as perfbench prints
    it (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def worse_by(parent: float, checkout: float, better: str) -> float:
    """How much worse the checkout's value is, as a share of the
    parent's; negative when it is better."""
    change = checkout - parent if better == "lower" else parent - checkout
    if parent:
        return change / abs(parent)
    return math.copysign(math.inf, change) if change else 0.0


def read_run(code: int, stdout: str, record: dict[str, Any] | None) -> dict[str, Any]:
    """One perfbench run: its exit code, the end-to-end values of every
    repetition (from ``result.json``) and what is wrong with it."""
    problems: list[str] = []
    if code != 0:
        problems.append(f"perfbench exited {code}")
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except ValueError:
        summary = None
    if not isinstance(summary, dict):
        problems.append("perfbench printed no result line")
    else:
        if summary.get("correct") is not True:
            problems.append('perfbench printed "correct": false')
        if summary.get("failed"):
            problems.append(
                f"{summary['failed']} of {summary.get('attempted')} points failed"
            )
    values: dict[str, list[float]] = {}
    if record is None:
        problems.append("perfbench wrote no result.json")
    else:
        for key in DETERMINISTIC:
            seen = sorted({rep[key] for rep in record["reps"]})
            if len(seen) > 1:
                problems.append(f"repetitions disagree on {key}: {seen}")
        values = {name: m["values"] for name, m in record["end_to_end"].items()}
    return {"code": code, "values": values, "problems": problems}


def judge(
    metrics: Sequence[dict[str, Any]],
    parent_runs: Sequence[dict[str, Any]],
    checkout_runs: Sequence[dict[str, Any]],
) -> dict[str, Any]:
    """Verdict of one workload: a row per metric, the checkout's
    failures, and the parent's problems (which skip the comparison)."""
    failures = [p for run in checkout_runs for p in run["problems"]]
    skipped = [p for run in parent_runs for p in run["problems"]]
    rows: list[dict[str, Any]] = []
    if skipped:
        return {"rows": rows, "failures": failures, "parent_problems": skipped}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        before = [v for run in parent_runs for v in run["values"].get(name, ())]
        after = [v for run in checkout_runs for v in run["values"].get(name, ())]
        if not before or not after:
            continue  # a run without values already failed or was skipped
        parent, checkout = median(before), median(after)
        worse = worse_by(parent, checkout, metric["better"])
        noise = spread(before)
        verdict = "ok"
        if worse > bound:
            verdict = "FAIL" if noise <= bound else "unresolved"
        if verdict == "FAIL":
            failures.append(
                f"{name} {worse:+.1%} worse than the parent "
                f"({checkout:.6g} vs {parent:.6g}; bound {bound:.0%})"
            )
        rows.append(
            {
                "metric": name,
                "parent": parent,
                "checkout": checkout,
                "worse": worse,
                "parent_spread": noise,
                "bound": bound,
                "verdict": verdict,
            }
        )
    return {"rows": rows, "failures": failures, "parent_problems": skipped}


def print_verdicts(verdicts: dict[str, dict[str, Any]]) -> None:
    table = [["workload", "metric", "parent", "checkout", "worse",
              "parent spread", "bound", "verdict"]]
    for workload, verdict in verdicts.items():
        for row in verdict["rows"]:
            table.append(
                [workload, row["metric"], f"{row['parent']:.6g}",
                 f"{row['checkout']:.6g}", f"{row['worse']:+.1%}",
                 f"{row['parent_spread']:.3f}", f"{row['bound']:.0%}",
                 row["verdict"]]
            )
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for workload, verdict in verdicts.items():
        if verdict["parent_problems"]:
            print(
                f"  {workload}: parent not gated, comparison skipped: "
                + "; ".join(verdict["parent_problems"])
            )


def export_parent(dest: str) -> str:
    """Export ``HEAD^1`` into ``dest`` with this checkout's benchmark
    copied over it; returns the parent's commit id."""
    try:
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", "HEAD^1^{commit}"],
            capture_output=True,
            text=True,
        )
    except OSError as exc:
        raise NoParent(f"cannot run git: {exc}") from exc
    if probe.returncode != 0:
        raise NoParent(
            "HEAD has no parent commit in this checkout (a shallow clone "
            "needs a depth of at least 2)"
        )
    commit = probe.stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(
        ["git", "-C", ROOT, "archive", "--format=tar", commit],
        stdout=subprocess.PIPE,
    )
    extract = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or extract.returncode != 0:
        raise NoParent(f"could not export the parent commit {commit}")
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        os.path.join(dest, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copyfile(
        os.path.join(ROOT, "BENCHMARK.json"), os.path.join(dest, "BENCHMARK.json")
    )
    return commit


def run_perfbench(tree: str, workload: str, seconds: float) -> dict[str, Any]:
    """One untraced perfbench run of ``workload`` on ``tree``."""
    result = os.path.join(tree, ".bench_out", f"{workload}-seed{SEED}", "result.json")
    if os.path.exists(result):
        os.remove(result)  # never read an earlier run's figures
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    record = None
    if os.path.exists(result):
        with open(result, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    return read_run(done.returncode, done.stdout, record)


def speedup_floor() -> dict[str, Any]:
    """The warm-store campaign on ``FLOOR_WORKERS`` pool processes
    against the same campaign run serially."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.campaign import CampaignScheduler
    from repro.core.casestudies import CASE_STUDIES

    configs = {study.name: list(study.configs[:2]) for study in CASE_STUDIES}

    def elapsed(workers: int, store: str) -> float:
        started = time.perf_counter()
        with CampaignScheduler(
            candidates=FLOOR_CANDIDATES,
            configs=configs,
            workers=workers,
            trace_store=store,
        ) as campaign:
            campaign.run()
        return time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="perf-gate-traces-") as store:
        elapsed(0, store)  # warms the trace store
        serial_s = elapsed(0, store)
        parallel_s = elapsed(FLOOR_WORKERS, store)
    cores = os.cpu_count() or 1
    ratio = serial_s / parallel_s
    return {
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "workers": FLOOR_WORKERS,
        "cores": cores,
        "speedup": ratio,
        "floor": SPEEDUP_FLOOR,
        "enforced": cores >= FLOOR_WORKERS,
        "passed": cores < FLOOR_WORKERS or ratio >= SPEEDUP_FLOOR,
    }


def main() -> int:
    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]
    seconds = float(benchmark["run_seconds"])
    runs: dict[str, dict[str, list[dict[str, Any]]]] = {
        side: {w: [] for w in workloads} for side in ("parent", "checkout")
    }
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
        trees = {"parent": os.path.join(scratch, "parent"), "checkout": ROOT}
        try:
            commit = export_parent(trees["parent"])
        except NoParent as exc:
            print(f"perf gate: {exc}")
            return 2
        print(
            f"perf gate: checkout against parent {commit[:12]}, {PAIRS} pairs "
            f"per workload, seed {SEED}, {seconds:g} s per run"
        )
        for pair in range(PAIRS):
            order = ("parent", "checkout") if pair % 2 == 0 else ("checkout", "parent")
            for workload in workloads:
                for side in order:
                    run = run_perfbench(trees[side], workload, seconds)
                    run["pair"] = pair + 1
                    runs[side][workload].append(run)
                    wall = run["values"].get("wall_s") or [math.nan]
                    sims = run["values"].get("simulations") or [math.nan]
                    print(
                        f"  pair {pair + 1} {workload:<13} {side:<8} "
                        f"{len(wall)} reps, median wall_s {median(wall):.3f}, "
                        f"{median(sims):.0f} simulations: "
                        + ("; ".join(run["problems"]) or "ok")
                    )
    verdicts = {
        w: judge(metrics, runs["parent"][w], runs["checkout"][w]) for w in workloads
    }
    print_verdicts(verdicts)

    floor = speedup_floor()
    line = (
        f"speedup floor: serial {floor['serial_s']:.2f} s / {floor['workers']} "
        f"workers {floor['parallel_s']:.2f} s = {floor['speedup']:.2f}x, "
        f"floor {floor['floor']:.1f}x: "
    )
    if not floor["enforced"]:
        line += f"skipped, {floor['cores']} cores < {floor['workers']} workers"
    else:
        line += "ok" if floor["passed"] else "FAIL"
    print(line)

    failures = [
        f"{w}: {failure}" for w, v in verdicts.items() for failure in v["failures"]
    ]
    if not floor["passed"]:
        failures.append(
            f"parallel campaign only {floor['speedup']:.2f}x faster than serial "
            f"on {floor['cores']} cores; the floor is {floor['floor']:.1f}x"
        )
    wall_s = time.monotonic() - started
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "parent": commit,
                "pairs": PAIRS,
                "seed": SEED,
                "run_seconds": seconds,
                "cpu_count": os.cpu_count(),
                "runs": runs,
                "verdicts": verdicts,
                "speedup_floor": floor,
                "failures": failures,
                "wall_s": wall_s,
            },
            handle,
            indent=1,
        )
    if failures:
        print("FAIL:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"perf gate passed in {wall_s:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
