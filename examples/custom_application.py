#!/usr/bin/env python3
"""Extending the library: explore DDTs for your own application.

The methodology is not limited to the four bundled case studies.  This
example defines a new network application -- a per-source rate monitor
(token buckets scanned per packet, a violation log appended on drops) --
declares its dominant structures, and runs the full 3-step exploration
on it.

Run with::

    python examples/custom_application.py
"""

from repro.apps.base import NetworkApplication
from repro.core.application_level import profile_dominant_structures
from repro.core.methodology import DDTRefinement
from repro.core.simulate import SimulationEnvironment
from repro.ddt import RecordSpec
from repro.net.config import NetworkConfig


class RateMonitorApp(NetworkApplication):
    """Token-bucket rate monitor with a violation log.

    Dominant structures:

    * ``bucket`` -- per-source token buckets, scanned by source address
      for every packet (keyed scans + in-place updates);
    * ``violation`` -- drop log, appended on violations and trimmed from
      the front when it exceeds its capacity (FIFO churn).
    """

    name = "RateMonitor"
    dominant_structures = ("bucket", "violation")
    record_specs = {
        "bucket": RecordSpec("bucket", size_bytes=24, key_bytes=4),
        "violation": RecordSpec("violation", size_bytes=16, key_bytes=4),
    }
    # Every parameter the app reads, with its default.
    param_defaults = {"rate_bytes": 20000, "log_entries": 128}

    def setup(self) -> None:
        self._buckets = self.make_structure("bucket")
        self._violations = self.make_structure("violation")
        self._rate = int(self.param("rate_bytes"))
        self._log_cap = int(self.param("log_entries"))

    def process(self, packet) -> None:
        src = packet.src_ip
        hit = self._buckets.find(lambda b: b[0] == src)
        if hit is None:
            self._buckets.append((src, self._rate - packet.size_bytes))
            self.stats.bump("sources")
            return
        pos, (key, tokens) = hit
        tokens += self._rate // 50  # refill per observed packet
        if tokens < packet.size_bytes:
            self._violations.append((src, packet.size_bytes))
            self.stats.bump("violations")
            if len(self._violations) > self._log_cap:
                self._violations.pop_front()
        else:
            tokens -= packet.size_bytes
            self.stats.bump("conformant")
        self._buckets.set(pos, (key, min(tokens, 2 * self._rate)))


def main() -> None:
    env = SimulationEnvironment()
    configs = [NetworkConfig("BWY-I"), NetworkConfig("Collis")]

    # Step 0 (profiling): which structures dominate the access counts?
    profile = profile_dominant_structures(RateMonitorApp, configs[0], env)
    print("Dominance profile (accesses per structure):")
    for structure, accesses in profile.items():
        print(f"  {structure:12s} {accesses}")

    # Steps 1-3 on the custom application, restricted candidate set for
    # a fast demo.
    refinement = DDTRefinement(
        RateMonitorApp,
        configs=configs,
        candidates=("AR", "AR(P)", "SLL", "DLL(O)", "SLL(ARO)"),
        env=env,
    )
    result = refinement.run()

    print(
        f"\nexplored {result.reduced_simulations} of "
        f"{result.exhaustive_simulations} possible simulations "
        f"({result.reduction_fraction:.0%} saved)"
    )
    ref = result.step1.reference_config.label
    curve = result.step3.curves[("time_s", "energy_mj")][ref]
    print(f"\nPareto-optimal DDT choices for {RateMonitorApp.name} on {ref}:")
    for point in curve.points:
        print(
            f"  {point.label:18s} time {point.x * 1e3:7.3f} ms   "
            f"energy {point.y:8.5f} mJ"
        )


if __name__ == "__main__":
    main()
