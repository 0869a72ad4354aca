#!/usr/bin/env python3
"""A distributed campaign: an embedded queue broker + two worker processes.

The campaign scheduler compiles the case studies into task-graph nodes
whose points are serialisable tuples; a
:class:`~repro.core.broker.QueueTransport` pushes those points onto an
embedded broker that ``ddt-explore worker --connect-broker`` processes
pull from, instead of a local pool -- so workers are decoupled from the
coordinator and may join or leave mid-campaign.  This example runs the
whole loop on one machine:

1. start a broker on an ephemeral localhost port;
2. spawn two worker subprocesses with unequal advertised capacities
   (1 vs 3 parallel slots) and wait until the broker lists both as
   live -- the narrow sweep is only two lane runs, short enough to end
   before a slow-starting worker says hello;
3. run a narrow URL campaign through the broker;
4. verify the records equal a serial run on ``content_key()`` -- the
   distribution layer may change *where* points run, never the results
   -- and print the measured capacity-weighted dispatch.

Run with::

    PYTHONPATH=src python examples/distributed_campaign.py
"""

import os
import subprocess
import sys
import time

from repro import CampaignScheduler, QueueTransport, case_study
from repro.core.broker import BrokerClient

CANDIDATES = ("AR", "SLL", "DLL(O)", "SLL(AR)")


def spawn_worker(address: str, worker_id: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.tools.explore",
            "worker",
            "--connect-broker",
            address,
            "--id",
            worker_id,
            *extra,
        ],
        env=env,
    )


def wait_live(address: str, *worker_ids: str, timeout: float = 30.0) -> None:
    client = BrokerClient(address)
    try:
        deadline = time.monotonic() + timeout
        while not set(worker_ids) <= set(client.call("fleet")["fleet"]["live"]):
            if time.monotonic() > deadline:
                raise RuntimeError(f"workers {worker_ids} never registered")
            time.sleep(0.05)
    finally:
        client.close()


def main() -> None:
    configs = {"URL": list(case_study("URL").configs[:2])}

    # The serial baseline the distributed run must reproduce exactly.
    with CampaignScheduler(
        studies=["url"], candidates=CANDIDATES, configs=configs
    ) as campaign:
        serial = campaign.run()

    # Workers pull at capacity-weighted rates and could join/leave
    # mid-campaign.
    transport = QueueTransport(worker_timeout=60)
    print(f"campaign broker at {transport.address}")
    workers = [
        spawn_worker(transport.address, "small", "--capacity", "1"),
        spawn_worker(transport.address, "big", "--capacity", "3"),
    ]
    wait_live(transport.address, "small", "big")
    with CampaignScheduler(
        studies=["url"],
        candidates=CANDIDATES,
        configs=configs,
        transport=transport,
    ) as campaign:
        queued = campaign.run()
    # Closing the scheduler concluded the campaign; workers exit cleanly.
    for worker in workers:
        worker.wait(timeout=30)

    a = [r.content_key() for r in serial.refinements["URL"].step2.log]
    b = [r.content_key() for r in queued.refinements["URL"].step2.log]
    assert a == b, "distribution must not change results"
    print(
        f"\n{len(b)} step-2 records bit-identical to the serial run; "
        f"{transport.results_received} points executed by "
        f"{len(transport.workers_seen)} workers "
        f"({transport.requeues} requeued, "
        f"quarantined: {queued.quarantined or 'none'})"
    )
    for worker_id, stats in sorted(queued.worker_stats.items()):
        print(
            f"  {worker_id}: capacity {stats['capacity']}, "
            f"{stats['points']} points at {stats['throughput']:.1f}/s"
        )


if __name__ == "__main__":
    main()
