"""Integration tests of the 3-step methodology.

These run real (small) explorations: a restricted DDT candidate set on
short traces keeps them fast while exercising every step end to end.
"""

import pytest

from repro.apps import DrrApp, UrlApp
from repro.core.application_level import (
    explore_application_level,
    profile_dominant_structures,
)
from repro.core.methodology import DDTRefinement
from repro.core.network_level import explore_network_level
from repro.core.pareto_level import curve_for, explore_pareto_level, pareto_records
from repro.core.selection import ParetoSelection, QuantileUnion
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.net.config import NetworkConfig

CANDIDATES = ("AR", "SLL", "DLL(O)", "SLL(AR)")
SMALL = NetworkConfig("Whittemore")
CONFIGS = [NetworkConfig("Whittemore"), NetworkConfig("Sudikoff")]


@pytest.fixture(scope="module")
def env():
    return SimulationEnvironment()


@pytest.fixture(scope="module")
def url_result(env):
    refinement = DDTRefinement(
        UrlApp, configs=CONFIGS, candidates=CANDIDATES, env=env
    )
    return refinement.run()


class TestSimulate:
    def test_record_identity(self, env):
        record = run_simulation(
            UrlApp, SMALL, {"url_pattern": "AR", "connection": "SLL"}, env
        )
        assert record.app_name == "URL"
        assert record.config_label == "Whittemore"
        assert record.combo_label == "AR+SLL"
        assert record.metrics.accesses > 0
        assert record.wall_time_s > 0

    def test_deterministic(self, env):
        a = run_simulation(UrlApp, SMALL, {"url_pattern": "AR", "connection": "AR"}, env)
        b = run_simulation(UrlApp, SMALL, {"url_pattern": "AR", "connection": "AR"}, env)
        assert a.metrics == b.metrics
        assert a.stats == b.stats

    def test_trace_cache_shared(self, env):
        t1 = env.trace_for(SMALL)
        t2 = env.trace_for(NetworkConfig("Whittemore", {"x": 1}))
        assert t1 is t2  # same trace name -> same cached object


class TestProfiling:
    def test_dominance_ranking(self, env):
        profile = profile_dominant_structures(UrlApp, SMALL, env)
        assert set(profile) == {"url_pattern", "connection"}
        counts = list(profile.values())
        assert counts == sorted(counts, reverse=True)
        assert all(c > 0 for c in counts)


class TestStep1:
    def test_explores_all_combinations(self, env):
        step1 = explore_application_level(
            UrlApp, SMALL, candidates=CANDIDATES, env=env
        )
        assert step1.simulations == len(CANDIDATES) ** 2
        assert len(step1.log) == step1.simulations
        assert 0 < len(step1.survivors) <= step1.simulations

    def test_survivors_subset_of_combos(self, env):
        step1 = explore_application_level(
            UrlApp, SMALL, candidates=CANDIDATES, env=env
        )
        assert set(step1.survivors) <= set(step1.log.combos())

    def test_progress_callback(self, env):
        calls = []
        explore_application_level(
            UrlApp,
            SMALL,
            candidates=("AR", "SLL"),
            env=env,
            progress=lambda done, total, label: calls.append((done, total)),
        )
        assert calls[0] == (1, 4)
        assert calls[-1] == (4, 4)

    def test_custom_policy(self, env):
        step1 = explore_application_level(
            UrlApp, SMALL, candidates=CANDIDATES, policy=ParetoSelection(), env=env
        )
        # Pareto set of the reference config survives
        assert step1.survivors


class TestStep2:
    def test_survivors_times_configs(self, env):
        step1 = explore_application_level(
            UrlApp, SMALL, candidates=CANDIDATES, env=env
        )
        step2 = explore_network_level(UrlApp, step1, CONFIGS, env=env)
        survivors = len(dict.fromkeys(step1.survivors))
        assert len(step2.log) == survivors * len(CONFIGS)
        # reference config records reused, not re-simulated
        assert step2.simulations == survivors * (len(CONFIGS) - 1)

    def test_empty_configs_rejected(self, env):
        step1 = explore_application_level(
            UrlApp, SMALL, candidates=("AR",), env=env
        )
        with pytest.raises(ValueError):
            explore_network_level(UrlApp, step1, [], env=env)


class TestRefinementParameters:
    """The library entry refuses what the scheduler and CLI refuse: a
    parameter the app does not read would label configurations that
    simulate alike."""

    def test_unread_parameter_in_configs_refused(self):
        configs = [NetworkConfig("Whittemore", {"bogus": v}) for v in (1, 2)]
        with pytest.raises(ValueError, match="reads no parameter 'bogus'"):
            DDTRefinement(UrlApp, configs, candidates=["AR", "SLL"])

    def test_unread_parameter_in_reference_config_refused(self):
        reference = NetworkConfig("Whittemore", {"bogus": 3})
        with pytest.raises(ValueError, match="reads no parameter 'bogus'"):
            DDTRefinement(UrlApp, CONFIGS, reference_config=reference)


class TestStep3:
    def test_curves_per_config(self, url_result):
        step3 = url_result.step3
        for pair in (("time_s", "energy_mj"), ("accesses", "footprint_bytes")):
            assert set(step3.curves[pair]) == {c.label for c in CONFIGS}
            for curve in step3.curves[pair].values():
                assert curve.is_valid_front()

    def test_pareto_sets_nondominated(self, url_result):
        for config_label, records in url_result.step3.pareto_sets.items():
            assert records
            for a in records:
                assert not any(
                    b.metrics.dominates(a.metrics) for b in records if b is not a
                )

    def test_trade_offs_bounded(self, url_result):
        for metric, value in url_result.step3.trade_offs.items():
            assert 0.0 <= value < 1.0

    def test_front_points_exist_in_log(self, url_result):
        log = url_result.step2.log
        curve = url_result.step3.curves[("time_s", "energy_mj")]["Whittemore"]
        for point in curve.points:
            assert log.lookup("Whittemore", point.label) is not None

    def test_empty_log_rejected(self):
        from repro.core.results import ExplorationLog

        with pytest.raises(ValueError):
            explore_pareto_level(ExplorationLog())


class TestRefinementAccounting:
    def test_exhaustive_count(self, url_result):
        assert url_result.exhaustive_simulations == len(CANDIDATES) ** 2 * len(CONFIGS)

    def test_reduced_leq_exhaustive(self, url_result):
        assert url_result.reduced_simulations <= url_result.exhaustive_simulations

    def test_reduced_accounting(self, url_result):
        survivors = len(dict.fromkeys(url_result.step1.survivors))
        expected = len(CANDIDATES) ** 2 + survivors * (len(CONFIGS) - 1)
        assert url_result.reduced_simulations == expected

    def test_summary_row(self, url_result):
        name, exhaustive, reduced, pareto = url_result.summary_row()
        assert name == "URL"
        assert pareto == url_result.pareto_optimal_count
        assert pareto >= 1

    def test_pareto_subset_of_survivors(self, url_result):
        combos = set(url_result.step3.pareto_optimal_combos())
        assert combos <= set(url_result.step1.survivors)


class TestReductionSoundness:
    """The paper's pruning must not lose Pareto-optimal points."""

    def test_reduced_front_matches_exhaustive_front(self, env):
        """On the reference config, the front from the reduced log equals
        the front computed from an exhaustive log."""
        candidates = ("AR", "SLL", "DLL(O)")
        step1 = explore_application_level(
            DrrApp, SMALL, candidates=candidates, env=env
        )
        exhaustive_front = {
            r.combo_label for r in pareto_records(step1.log, "Whittemore")
        }
        # survivors always contain the exhaustive 4D front
        assert exhaustive_front <= set(step1.survivors)
        # and the 2D curves computed from survivors match
        survivors_log = step1.log.filter(
            lambda r: r.combo_label in set(step1.survivors)
        )
        full_curve = curve_for(step1.log, "Whittemore", "time_s", "energy_mj")
        reduced_curve = curve_for(survivors_log, "Whittemore", "time_s", "energy_mj")
        assert set(full_curve.labels()) == set(reduced_curve.labels())
