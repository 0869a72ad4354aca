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
  Pareto-optimal combinations of step 3.

A change that must not move any result (a speed-up, a refactor) has to
pass it; a deliberate model change fails it on purpose, which is why CI
does not run it.  Run it from a git checkout that holds the parent
commit, with no options; the working tree is the checkout side, so
commit a change before checking it against the commit it sits on::

    python benchmarks/check_records.py

Takes about 20 s on 2 vCPUs.  Exits 0 when both trees agree, 1 on
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


def run_campaigns(tree: str) -> dict[int, dict[str, Any]]:
    """Every seed's records, Table-1 rows and Pareto sets on ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", CAMPAIGN, tree, *map(str, SEEDS)],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"the campaign on {tree} exited {done.returncode}")
    runs = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return {run["seed"]: run for run in runs}


def differences(parent: dict[str, Any], checkout: dict[str, Any]) -> list[str]:
    """What differs between two trees' runs of one seed."""
    found: list[str] = []
    before, after = parent["records"], checkout["records"]
    for key in sorted(before.keys() | after.keys()):
        if before.get(key) != after.get(key):
            found.append(
                f"record {key}: parent {before.get(key, 'missing')}, "
                f"checkout {after.get(key, 'missing')}"
            )
    if parent["table1"] != checkout["table1"]:
        found.append(f"Table 1: parent {parent['table1']}, checkout {checkout['table1']}")
    for app in sorted(parent["pareto"].keys() | checkout["pareto"].keys()):
        if parent["pareto"].get(app) != checkout["pareto"].get(app):
            found.append(
                f"{app} Pareto sets: parent {parent['pareto'].get(app)}, "
                f"checkout {checkout['pareto'].get(app)}"
            )
    return found


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
        found = differences(parent, checkout)
        print(
            f"  seed {seed}: {len(checkout['records'])} records, "
            f"{len(checkout['table1'])} Table-1 rows: "
            + (f"FAIL, {len(found)} differences" if found else "all equal")
        )
        for line in found[:SHOWN]:
            print(f"    {line}")
        if len(found) > SHOWN:
            print(f"    ... and {len(found) - SHOWN} more")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
