"""Content parity of two campaign result directories.

Reads, per application, the ``exploration_log.csv`` that two
``ddt-explore campaign --out DIR`` runs wrote and compares their
records on ``SimulationRecord.content_key()``: everything a simulation
computed, host wall time excluded.  CI's queue, restart and
multi-tenant smoke jobs check each distributed campaign against a
serial one with it::

    PYTHONPATH=src python benchmarks/check_parity.py SERIAL_DIR OTHER_DIR [APP ...]

The applications default to all four case studies.  Prints one line
per application when both directories hold the same records; exits 1
naming the first application whose records differ, with both record
counts.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.casestudies import case_study_names
from repro.core.results import ExplorationLog


def content(directory: str, app: str) -> list[tuple]:
    """The content keys of one application's logged records, in order."""
    log = ExplorationLog.read_csv(os.path.join(directory, app, "exploration_log.csv"))
    return [record.content_key() for record in log]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("serial_dir", help="results of the reference campaign")
    parser.add_argument("other_dir", help="results of the campaign to check")
    parser.add_argument(
        "apps",
        nargs="*",
        metavar="APP",
        default=[name.lower() for name in case_study_names()],
        help="application subdirectories to compare (default: all four)",
    )
    args = parser.parse_args(argv)
    for app in args.apps:
        serial = content(args.serial_dir, app)
        other = content(args.other_dir, app)
        if serial != other:
            print(
                f"{app}: {args.other_dir} diverged from {args.serial_dir}: "
                f"{len(serial)} vs {len(other)} records",
                file=sys.stderr,
            )
            return 1
        print(f"{app}: {len(serial)} records identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
