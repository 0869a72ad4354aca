"""Queue-worker launcher: ``serve_queue_worker`` with optional spans.

Run as ``python3 perfbench/worker.py --address HOST:PORT --id ID
[--spans FILE]``.  With ``--spans`` the worker-side layer wrappers are
installed before the worker starts, and its spans are written to FILE
when it exits.  The exit code is the worker's own.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402  (puts the program's sources on sys.path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--address", required=True)
    parser.add_argument("--id", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="worker")
    args = parser.parse_args(argv)
    env.require_program()

    from repro.core import broker

    recorder = None
    if args.spans:
        from layers import install_worker
        from tracing import Recorder, write_jsonl

        recorder = Recorder(args.run_id)
        install_worker(recorder)
    try:
        if recorder is None:
            return broker.serve_queue_worker(
                args.address, args.id, capacity=1, retry_s=30.0, max_outage_s=5.0
            )
        with recorder.span("serve_queue_worker", "worker"):
            return broker.serve_queue_worker(
                args.address, args.id, capacity=1, retry_s=30.0, max_outage_s=5.0
            )
    finally:
        if recorder is not None:
            recorder.uninstall()
            write_jsonl(recorder.spans, args.spans)


if __name__ == "__main__":
    sys.exit(main())
