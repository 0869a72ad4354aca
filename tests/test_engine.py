"""Tests of the parallel exploration engine and persistent cache.

Parallel runs use 2 worker processes on deliberately small sweeps
(restricted candidate sets, short traces), asserting bit-identical
results against the serial path -- the engine must be a pure
performance layer with no observable effect on the methodology.
"""

import dataclasses
import json
import pickle
import shutil
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.apps import RouteApp, UrlApp
from repro.core import engine as engine_module
from repro.core.application_level import Step1Result, explore_application_level
from repro.core.casestudies import case_study
from repro.core.engine import (
    EnvSpec,
    ExplorationEngine,
    SimulationCache,
    model_fingerprint,
)
from repro.core.methodology import DDTRefinement
from repro.core.network_level import explore_network_level
from repro.core.results import ExplorationLog
from repro.core.simulate import SimulationEnvironment, run_simulation
from repro.memory.cacti import FlatEnergyModel
from repro.memory.timing import OperationCosts
from repro.net.config import NetworkConfig

CANDIDATES = ("AR", "SLL", "DLL(O)", "SLL(AR)")
SMALL = NetworkConfig("Whittemore")
CONFIGS = [NetworkConfig("Whittemore"), NetworkConfig("Sudikoff")]


@pytest.fixture(scope="module")
def env():
    return SimulationEnvironment()


def content(log: ExplorationLog) -> list[tuple]:
    return [record.content_key() for record in log]


class TestEnvSpec:
    def test_round_trip(self, env):
        spec = EnvSpec.from_env(env)
        rebuilt = spec.build()
        assert rebuilt.cacti is env.cacti
        assert rebuilt.costs is env.costs
        assert rebuilt._trace_cache == {}

    def test_picklable(self, env):
        spec = EnvSpec.from_env(env)
        clone = pickle.loads(pickle.dumps(spec))
        rebuilt = clone.build()
        record_a = run_simulation(
            UrlApp, SMALL, {"url_pattern": "AR", "connection": "SLL"}, env
        )
        record_b = run_simulation(
            UrlApp, SMALL, {"url_pattern": "AR", "connection": "SLL"}, rebuilt
        )
        assert record_a.content_key() == record_b.content_key()


class TestFingerprint:
    def test_stable_across_instances(self):
        assert model_fingerprint(SimulationEnvironment()) == model_fingerprint(
            SimulationEnvironment()
        )

    def test_costs_change_fingerprint(self):
        base = model_fingerprint(SimulationEnvironment())
        tweaked = model_fingerprint(
            SimulationEnvironment(costs=OperationCosts(packet_overhead=61))
        )
        assert base != tweaked

    def test_model_class_changes_fingerprint(self):
        base = model_fingerprint(SimulationEnvironment())
        flat = model_fingerprint(SimulationEnvironment(cacti=FlatEnergyModel()))
        assert base != flat

    def test_model_source_changes_fingerprint(self, tmp_path, monkeypatch):
        """The fingerprint hashes the model code's content: a copy of the
        package keys the same records, an edit to a model source file
        (a comment will do) keys none of them, and an edit outside the
        model code changes nothing."""

        package = engine_module.MODEL_SOURCE_ROOT

        def fingerprint_of(name, edit=None):
            copy = tmp_path / name
            shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
            if edit is not None:
                with open(copy / edit, "a", encoding="utf-8") as handle:
                    handle.write("# edited\n")
            monkeypatch.setattr(engine_module, "MODEL_SOURCE_ROOT", str(copy))
            return model_fingerprint(SimulationEnvironment())

        base = model_fingerprint(SimulationEnvironment())
        assert fingerprint_of("copy") == base
        assert fingerprint_of("hook", "ddt/linked.py") != base
        assert fingerprint_of("driver", "core/simulate.py") != base
        assert fingerprint_of("engine", "core/engine.py") == base


class TestSimulationCache:
    def test_round_trip_identical(self, env, tmp_path):
        record = run_simulation(
            UrlApp, SMALL, {"url_pattern": "AR", "connection": "SLL"}, env
        )
        fp = model_fingerprint(env)
        cache = SimulationCache(tmp_path)
        cache.put("URL", fp, record)
        cache.flush()
        # a fresh cache instance must reload the record bit-for-bit
        reloaded = SimulationCache(tmp_path).get(
            "URL", fp, record.config_label, record.combo_label
        )
        assert reloaded == record  # full equality, wall_time_s included

    def test_miss_on_unknown_point(self, tmp_path):
        cache = SimulationCache(tmp_path)
        assert cache.get("URL", "deadbeef", "X", "AR+SLL") is None
        assert cache.misses == 1

    def test_corrupt_shard_ignored(self, env, tmp_path):
        record = run_simulation(
            UrlApp, SMALL, {"url_pattern": "AR", "connection": "SLL"}, env
        )
        fp = model_fingerprint(env)
        cache = SimulationCache(tmp_path)
        cache.put("URL", fp, record)
        cache.flush()
        app_dir = next(tmp_path.iterdir())
        shard = next(app_dir.iterdir())
        shard.write_text("{ not json")
        assert (
            SimulationCache(tmp_path).get(
                "URL", fp, record.config_label, record.combo_label
            )
            is None
        )

    def test_concurrent_flush_merges_other_writers(self, env, tmp_path):
        """Two cache instances sharing a directory keep both writes.

        Regression: ``flush()`` used to rewrite the shard wholesale from
        the instance's in-memory view, so whichever instance flushed
        last silently erased the other's records (last writer wins).
        The flush must merge with the on-disk shard instead.
        """
        fp = model_fingerprint(env)
        record_a = run_simulation(
            UrlApp, SMALL, {"url_pattern": "AR", "connection": "SLL"}, env
        )
        record_b = run_simulation(
            UrlApp, SMALL, {"url_pattern": "SLL", "connection": "AR"}, env
        )
        first = SimulationCache(tmp_path)
        second = SimulationCache(tmp_path)
        # both instances load the (empty) shard before either flushes
        first.put("URL", fp, record_a)
        second.put("URL", fp, record_b)
        first.flush()
        second.flush()  # flushes last: must not drop record_a
        fresh = SimulationCache(tmp_path)
        assert (
            fresh.get("URL", fp, record_a.config_label, record_a.combo_label)
            == record_a
        )
        assert (
            fresh.get("URL", fp, record_b.config_label, record_b.combo_label)
            == record_b
        )

    def test_float_stats_round_trip(self, env, tmp_path):
        """Regression: reload used to coerce every stats value to int.

        Fractional per-run statistics (e.g. an average occupancy)
        must come back as the same floats -- and genuinely integral
        counters as ints -- so a cache hit is bit-for-bit identical to
        the original simulation.
        """
        base = run_simulation(
            UrlApp, SMALL, {"url_pattern": "AR", "connection": "SLL"}, env
        )
        record = dataclasses.replace(
            base, stats={**base.stats, "avg_occupancy": 2.75}
        )
        fp = model_fingerprint(env)
        cache = SimulationCache(tmp_path)
        cache.put("URL", fp, record)
        cache.flush()
        reloaded = SimulationCache(tmp_path).get(
            "URL", fp, record.config_label, record.combo_label
        )
        assert reloaded == record
        assert reloaded.stats["avg_occupancy"] == 2.75
        assert isinstance(reloaded.stats["avg_occupancy"], float)
        for key, value in record.stats.items():
            assert type(reloaded.stats[key]) is type(value)

    # -- append-only shards ---------------------------------------------
    @staticmethod
    def _points(env, count):
        """``count`` records of distinct URL points (one simulation)."""
        base = run_simulation(
            UrlApp, SMALL, {"url_pattern": "AR", "connection": "SLL"}, env
        )
        return [
            dataclasses.replace(base, combo_label=f"AR+{ddt}")
            for ddt in ("SLL", "DLL", "AR", "SLL(O)")[:count]
        ]

    @staticmethod
    def _shard_file(tmp_path):
        (shard,) = (tmp_path / "url").iterdir()
        return shard

    def test_overlapping_flushes_keep_both_records(self, env, tmp_path, monkeypatch):
        """Two writers on one shard whose flushes overlap keep both.

        The second writer's whole flush lands inside the first's, just
        before the first opens a file to write.  Regression: a flush
        that re-read the shard, merged and renamed over it lost the
        second writer's record for good, while that writer counted it
        as flushed.
        """
        fp = model_fingerprint(env)
        record_a, record_b = self._points(env, 2)
        first, second = SimulationCache(tmp_path), SimulationCache(tmp_path)
        first.put("URL", fp, record_a)
        second.put("URL", fp, record_b)
        inner = [second.flush]

        def open_after_inner_flush(file, mode="r", *args, **kwargs):
            if inner and ("w" in mode or "a" in mode):
                inner.pop()()
            return open(file, mode, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "open", open_after_inner_flush, raising=False)
            first.flush()
        assert not inner  # the second flush did land inside the first
        fresh = SimulationCache(tmp_path)
        for record in (record_a, record_b):
            assert fresh.get("URL", fp, *record.key) == record

    def test_torn_line_misses_only_its_own_records(self, env, tmp_path):
        """A batch cut mid-record (a writer killed mid-append) is a miss
        for its own records; the batches before it, and one appended
        after the cut, are still served."""
        fp = model_fingerprint(env)
        before, torn, after = self._points(env, 3)
        cache = SimulationCache(tmp_path)
        cache.put("URL", fp, before)
        cache.flush()
        shard = self._shard_file(tmp_path)
        intact = shard.stat().st_size
        cache.put("URL", fp, torn)
        cache.flush()
        with open(shard, "r+b") as handle:
            handle.truncate((intact + shard.stat().st_size) // 2)
        writer = SimulationCache(tmp_path)
        writer.put("URL", fp, after)
        writer.flush()
        fresh = SimulationCache(tmp_path)
        assert fresh.get("URL", fp, *before.key) == before
        assert fresh.get("URL", fp, *torn.key) is None
        assert fresh.get("URL", fp, *after.key) == after

    def test_line_of_another_fingerprint_is_skipped(self, env, tmp_path):
        """A shard copied under another fingerprint's name serves none of
        the records it holds under that fingerprint."""
        fp, other = model_fingerprint(env), "0123456789abcdef"
        (record,) = self._points(env, 1)
        cache = SimulationCache(tmp_path)
        cache.put("URL", fp, record)
        cache.flush()
        shard = self._shard_file(tmp_path)
        shutil.copyfile(shard, shard.with_name(shard.name.replace(fp, other)))
        fresh = SimulationCache(tmp_path)
        assert fresh.get("URL", other, *record.key) is None
        assert fresh.get("URL", fp, *record.key) == record

    def test_version_2_shard_is_not_read(self, env, tmp_path):
        fp = model_fingerprint(env)
        (record,) = self._points(env, 1)
        (tmp_path / "url").mkdir()
        (tmp_path / "url" / f"url-{fp}.json").write_text(
            json.dumps(
                {
                    "version": 2,
                    "app": "URL",
                    "fingerprint": fp,
                    "records": {
                        "\x1f".join(record.key): engine_module._record_to_json(record)
                    },
                }
            )
        )
        assert SimulationCache(tmp_path).get("URL", fp, *record.key) is None

    def test_flush_only_appends_what_is_new(self, env, tmp_path):
        """A flush with nothing new leaves the shard byte-identical; one
        more put and flush append exactly one line, holding that record."""
        fp = model_fingerprint(env)
        first, second = self._points(env, 2)
        cache = SimulationCache(tmp_path)
        cache.put("URL", fp, first)
        cache.flush()
        shard = self._shard_file(tmp_path)
        written = shard.read_bytes()
        cache.flush()
        replay = SimulationCache(tmp_path)
        assert replay.get("URL", fp, *first.key) == first
        replay.flush()
        assert shard.read_bytes() == written
        replay.put("URL", fp, second)
        replay.flush()
        grown = shard.read_bytes()
        assert grown.startswith(written)
        (line,) = [line for line in grown[len(written):].splitlines() if line]
        assert [data["combo_label"] for data in json.loads(line)["records"]] == [
            second.combo_label
        ]


class TestEngineSerial:
    def test_batch_matches_direct_runs(self, env):
        engine = ExplorationEngine(env=env)
        points = [
            (SMALL, {"url_pattern": "AR", "connection": "SLL"}),
            (SMALL, {"url_pattern": "SLL", "connection": "SLL"}),
        ]
        records = engine.run_batch(UrlApp, points)
        direct = [run_simulation(UrlApp, c, a, env) for c, a in points]
        assert [r.content_key() for r in records] == [
            r.content_key() for r in direct
        ]
        # one configuration: both points compose from one lane run
        assert engine.stats.simulations == 1
        assert engine.stats.cache_hits == 0

    def test_progress_in_point_order(self, env):
        engine = ExplorationEngine(env=env)
        calls = []
        engine.run_batch(
            UrlApp,
            [
                (SMALL, {"url_pattern": "AR", "connection": "SLL"}),
                (SMALL, {"url_pattern": "SLL", "connection": "AR"}),
            ],
            progress=lambda done, total, detail: calls.append((done, total, detail)),
        )
        assert [(done, total) for done, total, _ in calls] == [(1, 2), (2, 2)]
        assert calls[0][2] == "AR+SLL @ Whittemore"

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ExplorationEngine(workers=-1)

    def test_misaligned_details_rejected(self, env):
        with pytest.raises(ValueError):
            ExplorationEngine(env=env).run_batch(
                UrlApp,
                [(SMALL, {"url_pattern": "AR", "connection": "SLL"})],
                details=["a", "b"],
            )


class TestEngineParallel:
    """2-worker runs must be indistinguishable from serial ones."""

    def test_route_case_study_parity(self):
        study = case_study("Route")
        configs = list(study.configs[:2])
        serial = DDTRefinement(
            RouteApp, configs=configs, candidates=CANDIDATES
        ).run()
        with ExplorationEngine(workers=2) as engine:
            parallel = DDTRefinement(
                RouteApp, configs=configs, candidates=CANDIDATES, engine=engine
            ).run()
        assert content(parallel.step1.log) == content(serial.step1.log)
        assert content(parallel.step2.log) == content(serial.step2.log)
        assert parallel.step1.survivors == serial.step1.survivors
        assert parallel.summary_row() == serial.summary_row()

    def test_parallel_progress_counts(self, env):
        combos = [
            {"url_pattern": a, "connection": b}
            for a in ("AR", "SLL")
            for b in ("AR", "SLL")
        ]
        calls = []
        with ExplorationEngine(env=env, workers=2) as engine:
            engine.run_batch(
                UrlApp,
                [(SMALL, combo) for combo in combos],
                progress=lambda done, total, detail: calls.append((done, total)),
            )
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestEngineCache:
    def test_warm_cache_skips_all_simulations(self, tmp_path):
        study = case_study("Route")
        configs = list(study.configs[:2])
        cold = ExplorationEngine(cache=tmp_path)
        first = DDTRefinement(
            RouteApp, configs=configs, candidates=CANDIDATES, engine=cold
        ).run()
        cold.close()
        assert cold.stats.points == first.reduced_simulations
        assert 0 < cold.stats.simulations < first.reduced_simulations
        assert cold.stats.cache_hits == 0

        warm = ExplorationEngine(cache=tmp_path)
        second = DDTRefinement(
            RouteApp, configs=configs, candidates=CANDIDATES, engine=warm
        ).run()
        warm.close()
        # zero new simulations, same Table-1 accounting, identical records
        assert warm.stats.simulations == 0
        assert warm.stats.cache_hits == first.reduced_simulations
        assert second.summary_row() == first.summary_row()
        assert second.reduced_simulations == first.reduced_simulations
        assert second.reduction_fraction == first.reduction_fraction
        assert list(second.step2.log.records) == list(first.step2.log.records)

    def test_fingerprint_change_forces_miss(self, tmp_path):
        points = [(SMALL, {"url_pattern": "AR", "connection": "SLL"})]
        with ExplorationEngine(cache=tmp_path) as engine:
            engine.run_batch(UrlApp, points)
        other_env = SimulationEnvironment(costs=OperationCosts(packet_overhead=61))
        with ExplorationEngine(env=other_env, cache=tmp_path) as engine:
            engine.run_batch(UrlApp, points)
            assert engine.stats.simulations == 1
            assert engine.stats.cache_hits == 0

    def test_shared_cache_instance(self, env, tmp_path):
        cache = SimulationCache(tmp_path)
        points = [(SMALL, {"url_pattern": "AR", "connection": "SLL"})]
        with ExplorationEngine(env=env, cache=cache) as engine:
            engine.run_batch(UrlApp, points)
        with ExplorationEngine(env=SimulationEnvironment(), cache=cache) as engine:
            engine.run_batch(UrlApp, points)
            assert engine.stats.cache_hits == 1


class TestEngineTeardown:
    """Regression: a failed parallel run must not leak the worker pool."""

    POINT = [(SMALL, {"url_pattern": "AR", "connection": "SLL"})]

    def test_broken_worker_initializer_tears_transport_down(self, monkeypatch):
        engine = ExplorationEngine(workers=1)
        # EnvSpec.build() raises inside the pool initializer (a trace
        # store path that is no path), breaking every worker process.
        bad = EnvSpec(cacti=engine.env.cacti, costs=engine.env.costs, trace_store=0)
        monkeypatch.setattr(
            EnvSpec, "from_env", classmethod(lambda cls, env: bad)
        )
        with pytest.raises(BrokenProcessPool):
            engine.run_batch(UrlApp, self.POINT)
        # the failed run already tore the broken pool down...
        assert engine._transport is None
        # ...so close() has nothing to hang on and stays idempotent
        engine.close()
        engine.close()

    def test_close_flushes_cache_even_when_transport_close_raises(
        self, tmp_path, monkeypatch
    ):
        engine = ExplorationEngine(cache=tmp_path)
        engine.run_batch(UrlApp, self.POINT)

        class ExplodingTransport:
            quarantined = []

            def close(self):
                raise RuntimeError("boom")

        engine._transport = ExplodingTransport()
        with pytest.raises(RuntimeError, match="boom"):
            engine.close()
        # the record still reached the disk cache
        fresh = SimulationCache(tmp_path)
        assert (
            fresh.get(
                "URL",
                engine.fingerprint_for((SMALL.trace_name,)),
                SMALL.label,
                "AR+SLL",
            )
            is not None
        )

    def test_engine_reusable_after_close(self, env):
        engine = ExplorationEngine(env=env, workers=1)
        first = engine.run_batch(UrlApp, self.POINT)
        engine.close()
        second = engine.run_batch(UrlApp, self.POINT)
        engine.close()
        assert [r.content_key() for r in first] == [
            r.content_key() for r in second
        ]


class TestStep2Accounting:
    """Regression: the reused-vs-resimulated split of step 2."""

    def _step1(self, env, prune=False):
        step1 = explore_application_level(
            UrlApp, SMALL, candidates=CANDIDATES, env=env
        )
        if not prune:
            return step1
        # Drop the reference records of the survivors from the log, as if
        # an external (pruned) log had been supplied.
        survivors = set(step1.survivors)
        pruned_log = step1.log.filter(lambda r: r.combo_label not in survivors)
        return Step1Result(
            log=pruned_log,
            survivors=step1.survivors,
            reference_config=step1.reference_config,
            simulations=step1.simulations,
        )

    def test_reused_counted(self, env):
        step2 = explore_network_level(UrlApp, self._step1(env), CONFIGS, env=env)
        survivors = len(dict.fromkeys(self._step1(env).survivors))
        assert step2.reused == survivors
        assert step2.reference_resimulated == 0
        assert step2.simulations == survivors * (len(CONFIGS) - 1)

    def test_missing_reference_resimulated_and_reported(self, env):
        step1 = self._step1(env, prune=True)
        survivors = len(dict.fromkeys(step1.survivors))
        details = []
        step2 = explore_network_level(
            UrlApp,
            step1,
            CONFIGS,
            env=env,
            progress=lambda done, total, detail: details.append(detail),
        )
        # every reference point was re-simulated, none reused...
        assert step2.reused == 0
        assert step2.reference_resimulated == survivors
        # ...counted as performed simulations...
        assert step2.simulations == survivors * len(CONFIGS)
        # ...and reported distinctly, not as plain configuration runs.
        resim = [d for d in details if "(reference re-simulated)" in d]
        assert len(resim) == survivors
        assert not any(d.endswith("(reused)") for d in details)
        # the log still covers the full survivor x config grid
        assert len(step2.log) == survivors * len(CONFIGS)
