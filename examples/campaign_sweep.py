#!/usr/bin/env python3
"""All four case studies as one scheduled campaign.

Instead of four serial :class:`DDTRefinement` runs, a
:class:`CampaignScheduler` compiles every application's step-1 and
step-2 sweeps into one streaming task graph over one engine:

* the worker pool is shared and each app's step-2 grid is enqueued the
  moment its own step-1 survivors are known, so a wide app's tail never
  leaves workers idle while another app waits on a phase barrier;
* traces come from a persistent :class:`TraceStore` -- generated once
  per profile fingerprint for the whole campaign, loaded from disk by
  every worker and every re-run;
* simulation records persist in per-app shards
  (``<cache>/<app>/<app>-<fingerprint>.v3.jsonl``), so a second campaign is
  pure cache replay.

The per-app results are bit-identical to the serial runs -- scheduling
is a pure performance layer.

Run with::

    python examples/campaign_sweep.py
"""

import tempfile
import time

from repro import CampaignScheduler
from repro.core.reporting import table1_report
from repro.net.config import NetworkConfig

#: Narrowed sweep so the example finishes in seconds: 4 candidate DDTs,
#: two configurations per app.  Drop these arguments for the paper-size
#: campaign.
CANDIDATES = ("AR", "SLL", "DLL(O)", "SLL(AR)")
CONFIGS = {
    "Route": [NetworkConfig("BWY-I", {"radix_size": 128}),
              NetworkConfig("ANL", {"radix_size": 128})],
    "URL": [NetworkConfig("Whittemore"), NetworkConfig("Sudikoff")],
    "IPchains": [NetworkConfig("SDC", {"rule_count": 32}),
                 NetworkConfig("Berry-I", {"rule_count": 32})],
    "DRR": [NetworkConfig("Collis"), NetworkConfig("McLaughlin")],
}


def run_campaign(label: str, **kwargs):
    started = time.perf_counter()
    with CampaignScheduler(candidates=CANDIDATES, configs=CONFIGS, **kwargs) as camp:
        result = camp.run()
    elapsed = time.perf_counter() - started
    stats, traces = result.stats, result.trace_counters
    print(
        f"{label}: {elapsed:5.1f}s -- {stats.simulations} simulated, "
        f"{stats.cache_hits} from cache; traces: {traces['generations']} "
        f"generated, {traces['disk_loads']} loaded"
    )
    return result


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cache, store = f"{tmp}/cache", f"{tmp}/traces"
        cold = run_campaign(
            "cold (2 workers)", workers=2, cache=cache, trace_store=store
        )
        # Second campaign: records replay from the per-app cache shards,
        # traces load from the store -- zero simulations, zero generations.
        warm = run_campaign(
            "warm (cache only)", cache=cache, trace_store=store, resume=True
        )
        assert warm.stats.simulations == 0
        assert warm.trace_counters["generations"] == 0
        assert warm.summary_rows() == cold.summary_rows()
        # --resume accounting: every app replays untouched from its shard.
        for app, status, reused, resimulated, composed in warm.incremental.rows():
            print(f"  resume: {app:10s} {status:10s} "
                  f"{reused} reused / {resimulated} resimulated / "
                  f"{composed} composed")

    print("\nPer-app Table-1 accounting (identical across runs):")
    print(table1_report(list(warm.refinements.values())))

    print("\nCross-app normalised time-energy front:")
    for point in warm.cross_app_front():
        print(f"  {point.label:24s} time {point.time_frac:.2f}  "
              f"energy {point.energy_frac:.2f}")


if __name__ == "__main__":
    main()
