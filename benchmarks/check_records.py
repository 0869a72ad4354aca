"""Record parity: this checkout's paper campaign against its parent's.

Runs the serial four-application paper campaign (full DDT library, no
record cache) on the working tree and on an export of its parent commit
(``HEAD^1``, exported by ``check_regression.export_parent``), in the
application and configuration orders that perfbench's ``paper_serial``
workload draws for seeds 1 and 2, and compares what the two trees
computed:

* every step-1 and step-2 record, on ``SimulationRecord.content_key()``;
* the Table-1 rows (``CampaignResult.summary_rows()``);
* the Pareto sets: per application and configuration, the 4D
  Pareto-optimal combinations of step 3;
* once per tree, the parts of one full-library lane run per paper
  configuration (all ten DDTs on every structure): each run's base
  cycles and every ``PoolPart``, including the parts no step requests
  (a DDT pruned at step 1, on a step-2 configuration).

A change that must not move any result (a speed-up, a refactor) has to
pass it; a deliberate model change fails it on purpose, which is why CI
does not run it.  Run it from a git checkout that holds the parent
commit, with no options; the working tree is the checkout side, so
commit a change before checking it against the commit it sits on::

    python benchmarks/check_records.py

Takes about 15-25 s on 2 vCPUs.  Exits 0 when both trees agree, 1 on
any difference (the first few are printed) or a failed run, and 2 when
there is no parent commit to compare against.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Any

from check_regression import ROOT, NoParent, export_parent

SEEDS = (1, 2)
#: Differences printed per seed before the rest are only counted.
SHOWN = 5

#: Runs in a fresh interpreter on one tree: ``argv`` is the tree and
#: the seeds; prints one JSON object per seed.
CAMPAIGN = """
import json, os, sys
tree, seeds = sys.argv[1], [int(seed) for seed in sys.argv[2:]]
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
import workloads
from repro.core.campaign import CampaignScheduler

for seed in seeds:
    inputs = workloads.paper_inputs(seed, "full")
    with CampaignScheduler(
        studies=inputs.studies, candidates=inputs.candidates, configs=inputs.configs
    ) as campaign:
        result = campaign.run()
    records, pareto = {}, {}
    for name, refinement in result.refinements.items():
        for log in (refinement.step1.log, refinement.step2.log):
            for record in log:
                key = "|".join((record.app_name, record.config_label, record.combo_label))
                records[key] = repr(record.content_key())
        pareto[name] = {
            config: sorted(record.combo_label for record in front)
            for config, front in refinement.step3.pareto_sets.items()
        }
    print(json.dumps({
        "seed": seed,
        "records": records,
        "table1": [list(row) for row in result.summary_rows()],
        "pareto": pareto,
    }))
"""


#: Runs in a fresh interpreter on one tree (``argv[1]``): one lane run
#: of the whole DDT library per paper configuration; prints one JSON
#: object holding each run's base cycles and each of its parts.
LANE_RUNS = """
import json, os, sys
sys.path[:0] = [os.path.join(sys.argv[1], "src")]
from repro.core.casestudies import CASE_STUDIES
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.ddt.registry import all_ddt_names

env, library, runs = SimulationEnvironment(), tuple(all_ddt_names()), {}
for study in CASE_STUDIES:
    lanes = dict.fromkeys(study.app_cls.dominant_structures, library)
    for config in study.configs:
        parts = run_simulation(study.app_cls, config, lanes, env).parts
        run = study.name + "|" + config.label
        runs[run + " base cycles"] = parts.base_cycles
        for part in parts.pools:
            runs[run + " " + part.name + "/" + part.ddt] = repr(part)
print(json.dumps(runs))
"""


def run_script(tree: str, script: str, *args: str) -> list[Any]:
    """The JSON objects ``script`` prints in a fresh interpreter on ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", script, tree, *args],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"a run on {tree} exited {done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


def run_campaigns(tree: str) -> dict[int, dict[str, Any]]:
    """Every seed's records, Table-1 rows and Pareto sets on ``tree``."""
    runs = run_script(tree, CAMPAIGN, *map(str, SEEDS))
    return {run["seed"]: run for run in runs}


def run_lanes(tree: str) -> dict[str, Any]:
    """The full-library lane runs' base cycles and parts on ``tree``."""
    (runs,) = run_script(tree, LANE_RUNS)
    return runs


def keyed_differences(kind: str, before: dict[str, Any], after: dict[str, Any]) -> list[str]:
    """The keys whose values differ between two trees, one line each."""
    return [
        f"{kind} {key}: parent {before.get(key, 'missing')}, "
        f"checkout {after.get(key, 'missing')}"
        for key in sorted(before.keys() | after.keys())
        if before.get(key) != after.get(key)
    ]


def differences(parent: dict[str, Any], checkout: dict[str, Any]) -> list[str]:
    """What differs between two trees' runs of one seed."""
    found = keyed_differences("record", parent["records"], checkout["records"])
    if parent["table1"] != checkout["table1"]:
        found.append(f"Table 1: parent {parent['table1']}, checkout {checkout['table1']}")
    return found + keyed_differences("Pareto sets of", parent["pareto"], checkout["pareto"])


def report(label: str, found: list[str]) -> bool:
    """Print one comparison's verdict and its first differences; True if any."""
    print(f"  {label}: " + (f"FAIL, {len(found)} differences" if found else "all equal"))
    for line in found[:SHOWN]:
        print(f"    {line}")
    if len(found) > SHOWN:
        print(f"    ... and {len(found) - SHOWN} more")
    return bool(found)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="record-parity-") as scratch:
        parent_tree = os.path.join(scratch, "parent")
        try:
            commit = export_parent(parent_tree)
        except NoParent as exc:
            print(f"record parity: {exc}")
            return 2
        print(f"record parity: checkout against parent {commit[:12]}, seeds {SEEDS}")
        try:
            runs = {"parent": run_campaigns(parent_tree), "checkout": run_campaigns(ROOT)}
            lanes = {"parent": run_lanes(parent_tree), "checkout": run_lanes(ROOT)}
        except RuntimeError as exc:
            print(f"FAIL: {exc}")
            return 1
    failed = False
    for seed in SEEDS:
        parent, checkout = runs["parent"].get(seed), runs["checkout"].get(seed)
        if parent is None or checkout is None:
            print(f"  seed {seed}: FAIL, a tree printed no result")
            failed = True
            continue
        label = (
            f"seed {seed}: {len(checkout['records'])} records, "
            f"{len(checkout['table1'])} Table-1 rows"
        )
        failed = report(label, differences(parent, checkout)) or failed
    checkout = lanes["checkout"]
    runs = sum(key.endswith(" base cycles") for key in checkout)
    label = f"{runs} lane runs, {len(checkout) - runs} parts"
    failed = report(label, keyed_differences("lane run", lanes["parent"], checkout)) or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
