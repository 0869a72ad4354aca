"""Tests of the campaign scheduler: parity, sharding, trace reuse, CLI.

The campaign must be pure orchestration: per application, a campaign
run (serial or parallel, cold or warm) produces records bit-identical
to a standalone serial :class:`DDTRefinement` -- only the scheduling
changes.  Sweeps are deliberately narrowed (4 candidate DDTs, 2
configurations per app) to keep the full four-app parity test fast.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest
from support.faults import worker_env

from repro.core import campaign as campaign_module
from repro.core import engine as engine_module
from repro.core.campaign import MANIFEST_NAME, CampaignScheduler
from repro.core.casestudies import CASE_STUDIES, case_study
from repro.core.engine import ExplorationEngine, SimulationCache
from repro.core.methodology import DDTRefinement
from repro.net.config import NetworkConfig
from repro.tools import explore

CANDIDATES = ("AR", "SLL", "DLL(O)", "SLL(AR)")

#: Two configurations per app (the first is each study's reference).
NARROW = {
    study.name: list(study.configs[:2]) for study in CASE_STUDIES
}


def _serial_reference():
    """Four standalone serial refinements, the parity baseline."""
    results = {}
    for study in CASE_STUDIES:
        results[study.name] = DDTRefinement(
            study.app_cls, configs=NARROW[study.name], candidates=CANDIDATES
        ).run()
    return results


@pytest.fixture(scope="module")
def serial_results():
    return _serial_reference()


def assert_matches_serial(campaign_result, serial_results):
    assert list(campaign_result.refinements) == [s.name for s in CASE_STUDIES]
    for name, serial in serial_results.items():
        scheduled = campaign_result.refinements[name]
        assert [r.content_key() for r in scheduled.step1.log] == [
            r.content_key() for r in serial.step1.log
        ]
        assert scheduled.step1.survivors == serial.step1.survivors
        assert [r.content_key() for r in scheduled.step2.log] == [
            r.content_key() for r in serial.step2.log
        ]
        assert scheduled.summary_row() == serial.summary_row()
        assert scheduled.step3.trade_offs == serial.step3.trade_offs


class TestSerialParity:
    def test_all_four_apps_bit_identical(self, serial_results):
        with CampaignScheduler(candidates=CANDIDATES, configs=NARROW) as campaign:
            result = campaign.run()
        assert_matches_serial(result, serial_results)
        # every Table-1 point is composed; only the lane runs are simulated
        reduced = sum(r.reduced_simulations for r in serial_results.values())
        assert result.stats.points == result.stats.composed == reduced
        lane_runs = 0
        for study in CASE_STUDIES:
            refinement = result.refinements[study.name]
            lane_runs += 1  # step 1: every candidate of every structure
            lane_runs += len(refinement.step2.configs) - 1  # step 2: one per config
        assert result.stats.simulations == lane_runs == 8 < reduced

    def test_summary_accounting(self, serial_results):
        with CampaignScheduler(candidates=CANDIDATES, configs=NARROW) as campaign:
            result = campaign.run()
        assert len(result) == 4
        assert result.total_reduced_simulations() == sum(
            r.reduced_simulations for r in serial_results.values()
        )
        assert result.total_exhaustive_simulations() == sum(
            r.exhaustive_simulations for r in serial_results.values()
        )
        rows = result.pareto_summary()
        assert [row[0] for row in rows] == [s.name for s in CASE_STUDIES]

    def test_cross_app_front_is_a_front(self):
        with CampaignScheduler(
            studies=["url", "drr"],
            candidates=CANDIDATES,
            configs={"URL": NARROW["URL"], "DRR": NARROW["DRR"]},
        ) as campaign:
            front = campaign.run().cross_app_front()
        assert front  # never empty: each app contributes its extremes
        times = [p.time_frac for p in front]
        energies = [p.energy_frac for p in front]
        assert times == sorted(times)
        assert energies == sorted(energies, reverse=True)
        assert all(0.0 <= v <= 1.0 for v in times + energies)


class TestOneChain:
    STEPS = (
        "finish_application_level",
        "plan_network_level",
        "finish_network_level",
        "explore_pareto_level",
    )

    def test_both_runners_call_the_steps_through_campaign(self, monkeypatch):
        calls = []
        for name in self.STEPS:
            original = getattr(campaign_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(campaign_module, name, counted)
        with CampaignScheduler(
            studies=["url", "drr"],
            candidates=CANDIDATES,
            configs={"URL": NARROW["URL"], "DRR": NARROW["DRR"]},
        ) as campaign:
            campaign.run()
        assert Counter(calls) == {name: 2 for name in self.STEPS}
        calls.clear()
        DDTRefinement(
            case_study("DRR").app_cls, configs=NARROW["DRR"], candidates=CANDIDATES
        ).run()
        assert Counter(calls) == {name: 1 for name in self.STEPS}


class TestParallelParity:
    def test_two_workers_bit_identical_to_four_serial_runs(
        self, serial_results, tmp_path
    ):
        """The acceptance run: campaign over all apps on 2 workers."""
        with CampaignScheduler(
            candidates=CANDIDATES,
            configs=NARROW,
            workers=2,
            trace_store=tmp_path / "traces",
        ) as campaign:
            result = campaign.run()
        assert_matches_serial(result, serial_results)


class TestCacheSharding:
    def test_per_app_shard_isolation_and_warm_replay(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with CampaignScheduler(
            candidates=CANDIDATES, configs=NARROW, cache=cache_dir
        ) as campaign:
            cold = campaign.run()
        assert isinstance(campaign.engine.cache, SimulationCache)

        # one subdirectory per app, each holding only that app's records
        # (plus the campaign manifest recorded next to the shards)
        assert (cache_dir / "campaign-manifest.json").exists()
        subdirs = sorted(d for d in os.listdir(cache_dir) if (cache_dir / d).is_dir())
        assert subdirs == sorted(s.name.lower() for s in CASE_STUDIES)
        for study in CASE_STUDIES:
            shard_dir = cache_dir / study.name.lower()
            shards = os.listdir(shard_dir)
            # streaming keys records per trace: one shard per distinct
            # trace of the app's sweep
            traces = {c.trace_name for c in NARROW[study.name]}
            assert len(shards) == len(traces)
            slug = study.name.lower()
            for shard in shards:
                # one JSON line per flush, naming the fingerprint that is
                # also in the shard's file name
                assert shard.startswith(f"{slug}-") and shard.endswith(".v3.jsonl")
                fingerprint = shard[len(slug) + 1 : -len(".v3.jsonl")]
                with open(shard_dir / shard, encoding="utf-8") as handle:
                    batches = [json.loads(line) for line in handle if line.strip()]
                assert {batch["fingerprint"] for batch in batches} == {fingerprint}
                apps = {r["app_name"] for batch in batches for r in batch["records"]}
                assert apps == {study.name}

        with CampaignScheduler(
            candidates=CANDIDATES, configs=NARROW, cache=cache_dir
        ) as campaign:
            warm = campaign.run()
        assert warm.stats.simulations == 0
        assert warm.stats.cache_hits == cold.stats.points
        assert warm.summary_rows() == cold.summary_rows()

    def test_shared_engine_not_closed(self, tmp_path):
        engine = ExplorationEngine(cache=tmp_path)
        with CampaignScheduler(
            studies=["drr"],
            candidates=CANDIDATES,
            configs={"DRR": NARROW["DRR"]},
            engine=engine,
        ) as campaign:
            campaign.run()
        # the scheduler does not own a supplied engine: still usable
        engine.run_batch(
            case_study("DRR").app_cls,
            [(NARROW["DRR"][0], {"flow_queue": "SLL", "packet_buf": "SLL"})],
        )
        engine.close()

    def test_campaign_resumes_from_single_app_cli_records(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert explore.main(
            ["drr", "--traces", "Whittemore", "--cache", cache, "--quiet",
             "--out", str(tmp_path / "single")]
        ) == 0
        assert "engine: 1 simulated, 100 composed" in capsys.readouterr().out
        assert explore.campaign_main(
            ["--apps", "drr", "--traces", "Whittemore", "--cache", cache,
             "--resume", "--quiet", "--out", str(tmp_path / "campaign")]
        ) == 0
        out = capsys.readouterr().out
        assert "engine: 0 simulated, 0 composed, 100 served from cache" in out
        assert "incremental: 100 points reused, 0 resimulated, 0 composed" in out

    def test_campaign_warms_single_app_refinement(self, tmp_path):
        with CampaignScheduler(
            studies=["drr"],
            candidates=CANDIDATES,
            configs={"DRR": NARROW["DRR"]},
            cache=tmp_path,
        ) as campaign:
            warmed = campaign.run()
        with ExplorationEngine(cache=tmp_path) as engine:
            result = DDTRefinement(
                case_study("DRR").app_cls,
                configs=NARROW["DRR"],
                candidates=CANDIDATES,
                engine=engine,
            ).run()
        assert engine.stats.simulations == 0
        assert engine.stats.cache_hits == warmed.stats.points
        assert result.summary_row() == warmed.refinements["DRR"].summary_row()


#: One process of the shared-cache manifest race: builds a campaign on
#: the cache in argv[1], reports ready, waits for the go file, then
#: writes the manifest 300 times tagged with argv[2].
MANIFEST_WRITER = """
import os, sys, time
from repro.core.campaign import CampaignScheduler

cache, tag = sys.argv[1], sys.argv[2]
campaign = CampaignScheduler(studies=["url"], cache=cache)
open(os.path.join(cache, "ready-" + tag), "w").close()
deadline = time.monotonic() + 60
while not os.path.exists(os.path.join(cache, "go")):
    if time.monotonic() > deadline:
        sys.exit("never released")
    time.sleep(0.001)
for write in range(300):
    campaign._write_manifest({"URL": {"writer": tag, "write": write}})
"""


class TestSharedCacheManifest:
    def test_concurrent_manifest_writes_do_not_collide(self, tmp_path):
        """Two campaigns sharing one cache may write the manifest at the
        same moment: each writes through its own tmp file before the
        atomic rename, so neither fails and the file left behind is a
        whole manifest."""
        cache = tmp_path / "cache"
        cache.mkdir()
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", MANIFEST_WRITER, str(cache), tag],
                env=worker_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for tag in ("a", "b")
        ]
        try:
            deadline = time.monotonic() + 60
            while not all((cache / f"ready-{tag}").exists() for tag in "ab"):
                assert time.monotonic() < deadline, "writers never got ready"
                assert all(w.poll() is None for w in writers), "a writer died"
                time.sleep(0.01)
            (cache / "go").touch()
            errors = [w.communicate(timeout=60)[1] for w in writers]
        finally:
            for writer in writers:
                if writer.poll() is None:
                    writer.kill()
                    writer.wait(timeout=10)
        assert [w.returncode for w in writers] == [0, 0], errors
        payload = json.loads((cache / MANIFEST_NAME).read_text())
        assert set(payload) == {"version", "apps"}
        assert payload["apps"]["URL"]["write"] == 299
        assert not list(cache.glob("*.tmp"))


class TestTraceStoreIntegration:
    def test_warm_store_performs_zero_generations(self, tmp_path):
        store_dir = tmp_path / "traces"
        with CampaignScheduler(
            candidates=CANDIDATES, configs=NARROW, trace_store=store_dir
        ) as campaign:
            cold = campaign.run()
        needed = {c.trace_name for configs in NARROW.values() for c in configs}
        assert cold.trace_counters["generations"] == len(needed)

        with CampaignScheduler(
            candidates=CANDIDATES, configs=NARROW, trace_store=store_dir
        ) as campaign:
            warm = campaign.run()
        assert warm.trace_counters["generations"] == 0
        assert warm.trace_counters["disk_loads"] == len(needed)
        assert warm.summary_rows() == cold.summary_rows()
        for name in cold.refinements:
            assert [r.content_key() for r in warm.refinements[name].step2.log] == [
                r.content_key() for r in cold.refinements[name].step2.log
            ]

    def test_engine_prewarns_store_before_parallel_batch(self, tmp_path):
        store_dir = tmp_path / "traces"
        with CampaignScheduler(
            studies=["url"],
            candidates=CANDIDATES,
            configs={"URL": NARROW["URL"]},
            workers=2,
            trace_store=store_dir,
        ) as campaign:
            result = campaign.run()
        # the parent generated every trace before the workers ran
        assert result.trace_counters["generations"] == len(
            {c.trace_name for c in NARROW["URL"]}
        )
        assert sorted(os.listdir(store_dir))  # persisted for the workers


class TestSensitivityGrids:
    def test_grid_expands_configs_and_accounting(self):
        grids = {"DRR": {"quantum": [256, 512]}}
        scheduler = CampaignScheduler(
            studies=["drr"],
            candidates=CANDIDATES,
            configs={"DRR": NARROW["DRR"]},
            grids=grids,
        )
        configs = scheduler.configs_for("DRR")
        base = len(NARROW["DRR"])
        traces = len({c.trace_name for c in case_study("DRR").configs})
        assert len(configs) == base + traces * 2
        result = scheduler.run()
        scheduler.close()
        refinement = result.refinements["DRR"]
        assert refinement.exhaustive_simulations == len(CANDIDATES) ** 2 * len(
            configs
        )
        assert set(refinement.step2.log.configs()) == {c.label for c in configs}

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown apps"):
            CampaignScheduler(studies=["url"], grids={"Route": {"x": [1]}})
        with pytest.raises(ValueError, match="unknown apps"):
            CampaignScheduler(
                studies=["url"], configs={"Route": [NetworkConfig("ANL")]}
            )
        with pytest.raises(ValueError, match="duplicate"):
            CampaignScheduler(studies=["url", "URL"])
        with pytest.raises(ValueError, match="at least one"):
            CampaignScheduler(studies=[])

    def test_app_without_configurations_refused_at_construction(self):
        """An empty sweep used to surface at run() as a bare IndexError."""
        with pytest.raises(ValueError, match="URL: no configurations"):
            CampaignScheduler(studies=["url"], configs={"URL": []})

    def test_unread_parameters_refused_at_construction(self):
        """A grid or a configuration that sets a parameter the app does
        not read is refused, naming the app, the key and the known keys."""
        message = r"DRR reads no parameter 'radix_size' \(known: quantum, service_batch\)"
        with pytest.raises(ValueError, match=message):
            CampaignScheduler(studies=["drr"], grids={"DRR": {"radix_size": [64]}})
        with pytest.raises(ValueError, match=message):
            CampaignScheduler(
                studies=["drr"],
                configs={"DRR": [NetworkConfig("Whittemore", {"radix_size": 64})]},
            )

    def test_duplicate_candidates_refused_at_construction(self):
        """["AR", "AR"] used to run and report the Table-1 row
        ("URL", 4, 4, 1) for one distinct combination on one config."""
        with pytest.raises(ValueError, match=r"duplicate DDT candidates: \['AR'\]"):
            CampaignScheduler(
                studies=["url"],
                candidates=["AR", "AR"],
                configs={"URL": [NetworkConfig("Whittemore")]},
            )


class TestCampaignCli:
    def test_duplicate_candidates_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            explore.main(["campaign", "--apps", "url", "--candidates", "AR", "AR"])
        assert exited.value.code == 2
        assert "duplicate DDT candidates: ['AR']" in capsys.readouterr().err

    def test_unknown_grid_key_is_a_usage_error(self, capsys):
        """URL reads no ``bogus``: the grid used to simulate identical
        configurations under 10 extra labels and exit 0."""
        with pytest.raises(SystemExit) as exited:
            explore.main(
                ["campaign", "--apps", "url", "--traces", "Whittemore",
                 "--grid", "url:bogus=1,2", "--quiet"]
            )
        assert exited.value.code == 2
        assert (
            "URL reads no parameter 'bogus' (known: pattern_count, server_count)"
            in capsys.readouterr().err
        )

    def test_empty_grid_key_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            explore.main(
                ["campaign", "--apps", "url", "--traces", "Whittemore",
                 "--grid", "url:=1", "--quiet"]
            )
        assert exited.value.code == 2
        assert "URL reads no parameter ''" in capsys.readouterr().err

    def test_end_to_end_run(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = explore.main(
            [
                "campaign",
                "--apps",
                "url",
                "drr",
                "--candidates",
                "AR",
                "SLL",
                "--cache",
                str(tmp_path / "cache"),
                "--trace-store",
                str(tmp_path / "traces"),
                "--out",
                str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 2 case studies" in out
        assert "trace store:" in out
        assert "Cross-app normalised time-energy front" in out
        for app in ("url", "drr"):
            assert (out_dir / app / "exploration_log.csv").exists()
        assert sorted(os.listdir(tmp_path / "cache")) == [
            "campaign-manifest.json",
            "drr",
            "url",
        ]

    def test_grid_option_parsing(self):
        grids = explore._parse_grids(["route:radix_size=64,512", "url:x=a"])
        assert grids == {"Route": {"radix_size": [64, 512]}, "URL": {"x": ["a"]}}
        with pytest.raises(SystemExit):
            explore._parse_grids(["route=radix_size"])
        with pytest.raises(SystemExit):
            explore._parse_grids(["route:radix_size="])
        with pytest.raises(SystemExit, match="unknown case study"):
            explore._parse_grids(["nope:x=1"])

    def test_unknown_app_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown case study"):
            explore.main(["campaign", "--apps", "rout"])

    def test_grid_overlapping_base_sweep_deduplicated(self):
        study = case_study("Route")
        scheduler = CampaignScheduler(
            studies=["route"],
            grids={"Route": {"radix_size": [128, 512]}},
        )
        labels = [c.label for c in scheduler.configs_for("Route")]
        assert len(labels) == len(set(labels))
        # base sweep (128, 256) + only the novel 512 grid configs
        assert len(labels) == len(study.configs) + len(study.trace_names())
        scheduler.close()

    def test_rejects_negative_workers(self):
        with pytest.raises(SystemExit):
            explore.main(["campaign", "--workers", "-1"])

    def test_resume_run_reports_incremental(self, tmp_path, capsys):
        args = [
            "campaign",
            "--apps",
            "drr",
            "--candidates",
            "AR",
            "SLL",
            "--cache",
            str(tmp_path / "cache"),
            "--out",
            str(tmp_path / "results"),
            "--quiet",
        ]
        assert explore.main(args) == 0
        capsys.readouterr()
        assert explore.main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "incremental: " in out
        assert "unchanged" in out
        assert "engine: 0 simulated, 0 composed" in out

    def test_resume_resimulates_after_a_model_source_change(
        self, tmp_path, capsys, monkeypatch
    ):
        """A warm cache serves nothing a changed model code would compute
        differently: after an edit to a DDT module, ``--resume``
        simulates again instead of reusing the records."""
        args = [
            "campaign", "--apps", "drr", "--traces", "Whittemore",
            "--candidates", "AR", "SLL", "--cache", str(tmp_path / "cache"),
            "--out", str(tmp_path / "results"), "--quiet",
        ]
        assert explore.main(args) == 0
        capsys.readouterr()
        edited = tmp_path / "repro"
        shutil.copytree(
            engine_module.MODEL_SOURCE_ROOT,
            edited,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        with open(edited / "ddt" / "linked.py", "a", encoding="utf-8") as handle:
            handle.write("# edited\n")
        monkeypatch.setattr(engine_module, "MODEL_SOURCE_ROOT", str(edited))
        assert explore.main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "engine: 1 simulated" in out
        assert "incremental: 0 points reused" in out

    def test_single_case_cli_still_works(self, capsys):
        assert explore.main(["url", "--profile-only"]) == 0
        assert "dominant-structure profile" in capsys.readouterr().out
