"""Seeded randomized parity sweep across every transport.

The determinism contract says a simulation record is a pure function of
``(application, config, assignment)`` -- scheduling (serial, local
pool, queue broker) must be invisible in the results.  Rather than
hand-pick one sweep per transport, this test draws a random
app/config/candidate subset and worker count from a seeded RNG and runs
the *same* campaign through all three execution modes, asserting
``content_key()`` equality throughout.  Seeds are
fixed, so failures reproduce exactly.
"""

import random

import pytest

from support.faults import assert_matches, print_logs, spawn_worker, wait_live

from repro.core.broker import QueueTransport
from repro.core.campaign import CampaignScheduler
from repro.core.casestudies import CASE_STUDIES

#: Subset of the DDT library the RNG samples from (kept small so the
#: randomized sweeps stay fast; all names exist in the registry).
CANDIDATE_POOL = ["AR", "SLL", "DLL", "DLL(O)", "SLL(AR)"]


def _draw_campaign(seed: int):
    """One reproducible campaign shape: app, candidates, configs, fleet."""
    rng = random.Random(seed)
    study = CASE_STUDIES[rng.randrange(len(CASE_STUDIES))]
    candidates = tuple(sorted(rng.sample(CANDIDATE_POOL, rng.choice([2, 3]))))
    config_count = rng.choice([1, 2])
    configs = {study.name: list(study.configs)[:config_count]}
    workers = rng.choice([1, 2])
    capacities = [rng.choice([1, 2]) for _ in range(workers)]
    return study, candidates, configs, workers, capacities


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_randomized_transport_parity(seed, tmp_path):
    study, candidates, configs, workers, capacities = _draw_campaign(seed)

    def run_campaign(**kwargs):
        with CampaignScheduler(
            studies=[study.name],
            candidates=candidates,
            configs=configs,
            **kwargs,
        ) as campaign:
            return campaign.run()

    serial = run_campaign()
    assert serial.refinements[study.name].step1.log

    pooled = run_campaign(workers=workers)
    assert_matches(pooled, serial)

    queue_transport = QueueTransport(worker_timeout=60, heartbeat_ttl=5.0)
    queue_workers = [
        spawn_worker(
            queue_transport.address,
            f"rand-q{i}",
            capacity=capacity,
            log_dir=tmp_path,
        )
        for i, capacity in enumerate(capacities)
    ]
    try:
        wait_live(queue_transport.address, *(f"rand-q{i}" for i in range(workers)))
        queued = run_campaign(transport=queue_transport)
        assert [p.wait(timeout=30) for p in queue_workers] == [0] * workers
    finally:
        for proc in queue_workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        print_logs(tmp_path)
    assert_matches(queued, serial)
    assert queue_transport.results_received == queued.stats.simulations
