"""Tests of the task-graph scheduler: primitives, parity, resume.

The task graph must change *scheduling only*: per application, a
campaign (serial or 2-worker) produces records bit-identical to
standalone serial :class:`DDTRefinement` runs.  On top, the campaign manifest must make
re-runs incremental -- editing one trace profile or one app's grid may
resimulate only the affected delta.
"""

import dataclasses
import json

import pytest

from repro.core.campaign import MANIFEST_NAME, CampaignScheduler
from repro.core.casestudies import CASE_STUDIES
from repro.core.engine import ExplorationEngine
from repro.core.methodology import DDTRefinement
from repro.core.taskgraph import TaskGraph, TaskNode
from repro.apps import DrrApp, UrlApp
from repro.net import profiles
from repro.net.config import NetworkConfig

CANDIDATES = ("AR", "SLL", "DLL(O)", "SLL(AR)")

#: Two configurations per app (the first is each study's reference).
NARROW = {study.name: list(study.configs[:2]) for study in CASE_STUDIES}


def content(log):
    return [r.content_key() for r in log]


@pytest.fixture(scope="module")
def serial_results():
    """Four standalone serial refinements, the parity baseline."""
    return {
        study.name: DDTRefinement(
            study.app_cls, configs=NARROW[study.name], candidates=CANDIDATES
        ).run()
        for study in CASE_STUDIES
    }


def assert_matches_serial(campaign_result, serial_results):
    assert list(campaign_result.refinements) == [s.name for s in CASE_STUDIES]
    for name, serial in serial_results.items():
        scheduled = campaign_result.refinements[name]
        assert content(scheduled.step1.log) == content(serial.step1.log)
        assert scheduled.step1.survivors == serial.step1.survivors
        assert content(scheduled.step2.log) == content(serial.step2.log)
        assert scheduled.summary_row() == serial.summary_row()
        assert scheduled.step3.trade_offs == serial.step3.trade_offs


# ----------------------------------------------------------------------
# graph primitives
# ----------------------------------------------------------------------
class TestGraphPrimitives:
    SMALL = NetworkConfig("Whittemore")
    POINT = (SMALL, {"url_pattern": "AR", "connection": "SLL"})

    def test_continuation_enqueues_follow_up_node(self):
        engine = ExplorationEngine()
        graph = TaskGraph(engine)
        seen = {}

        def follow_up(records):
            seen["first"] = list(records)
            return [
                TaskNode(
                    name="second",
                    app_cls=UrlApp,
                    points=[
                        (self.SMALL, {"url_pattern": "SLL", "connection": "SLL"})
                    ],
                    continuation=lambda recs: seen.update(second=list(recs)),
                )
            ]

        graph.add(
            TaskNode(
                name="first",
                app_cls=UrlApp,
                points=[self.POINT],
                continuation=follow_up,
            )
        )
        nodes = graph.run()
        assert [node.name for node in nodes] == ["first", "second"]
        assert all(node.complete for node in nodes)
        assert len(seen["first"]) == 1 and len(seen["second"]) == 1
        assert engine.stats.simulations == 2
        assert engine.stats.batches == 2

    def test_empty_node_still_runs_continuation(self):
        engine = ExplorationEngine()
        graph = TaskGraph(engine)
        calls = []
        graph.add(
            TaskNode(
                name="empty",
                app_cls=UrlApp,
                points=[],
                continuation=lambda records: calls.append(list(records)),
            )
        )
        nodes = graph.run()
        assert calls == [[]]
        assert nodes[0].complete

    def test_misaligned_details_rejected(self):
        graph = TaskGraph(ExplorationEngine())
        with pytest.raises(ValueError, match="index-aligned"):
            graph.add(
                TaskNode(
                    name="bad", app_cls=UrlApp, points=[self.POINT], details=["a", "b"]
                )
            )

    def test_parallel_matches_serial_records(self, tmp_path):
        def build():
            return TaskNode(
                name="batch",
                app_cls=UrlApp,
                points=[
                    (self.SMALL, {"url_pattern": a, "connection": b})
                    for a in ("AR", "SLL")
                    for b in ("AR", "SLL")
                ],
            )

        graph = TaskGraph(ExplorationEngine())
        node = graph.add(build())
        graph.run()
        with ExplorationEngine(workers=2, trace_store=tmp_path) as engine:
            pgraph = TaskGraph(engine)
            pnode = pgraph.add(build())
            pgraph.run()
        assert content(pnode.records) == content(node.records)


class TestScopedFingerprints:
    def test_scoped_fingerprint_ignores_unrelated_profiles(self, monkeypatch):
        engine = ExplorationEngine()
        scoped_before = engine.fingerprint_for(("BWY-I",))
        anl_before = engine.fingerprint_for(("ANL",))
        global_before = engine.fingerprint

        mutated = tuple(
            dataclasses.replace(p, seed=p.seed + 1000) if p.name == "ANL" else p
            for p in profiles.PROFILES
        )
        monkeypatch.setattr(profiles, "PROFILES", mutated)
        monkeypatch.setattr(profiles, "_BY_NAME", {p.name: p for p in mutated})

        fresh = ExplorationEngine()
        assert fresh.fingerprint_for(("BWY-I",)) == scoped_before
        assert fresh.fingerprint_for(("ANL",)) != anl_before
        assert fresh.fingerprint != global_before

    def test_scope_order_and_duplicates_are_normalised(self):
        engine = ExplorationEngine()
        assert engine.fingerprint_for(("ANL", "BWY-I")) == engine.fingerprint_for(
            ("BWY-I", "ANL", "ANL")
        )


# ----------------------------------------------------------------------
# streaming parity (the acceptance matrix)
# ----------------------------------------------------------------------
class TestStreamingParity:
    def test_streaming_serial_bit_identical(self, serial_results):
        with CampaignScheduler(candidates=CANDIDATES, configs=NARROW) as campaign:
            result = campaign.run()
        assert_matches_serial(result, serial_results)
        assert result.incremental is not None
        assert result.incremental.resimulated == result.stats.simulations

    def test_streaming_two_workers_bit_identical(self, serial_results, tmp_path):
        with CampaignScheduler(
            candidates=CANDIDATES,
            configs=NARROW,
            workers=2,
            trace_store=tmp_path / "traces",
        ) as campaign:
            result = campaign.run()
        assert_matches_serial(result, serial_results)


# ----------------------------------------------------------------------
# incremental campaigns: manifest + resume
# ----------------------------------------------------------------------
class TestIncrementalResume:
    TWO_APPS = {
        "studies": ["url", "drr"],
        "candidates": CANDIDATES,
        "configs": {"URL": NARROW["URL"], "DRR": NARROW["DRR"]},
    }

    def test_manifest_records_schedule(self, tmp_path):
        cache = tmp_path / "cache"
        with CampaignScheduler(cache=cache, **self.TWO_APPS) as campaign:
            campaign.run()
        path = cache / MANIFEST_NAME
        assert path.exists()
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert set(payload) == {"version", "apps"}
        assert payload["version"] == 1
        assert sorted(payload["apps"]) == ["DRR", "URL"]
        url = payload["apps"]["URL"]
        assert url["configs"] == [c.label for c in NARROW["URL"]]
        assert len(url["combos"]) == len(CANDIDATES) ** len(
            UrlApp.dominant_structures
        )
        assert set(url["traces"]) == {c.trace_name for c in NARROW["URL"]}

    def test_warm_resume_reuses_everything(self, tmp_path):
        cache = tmp_path / "cache"
        with CampaignScheduler(cache=cache, **self.TWO_APPS) as campaign:
            cold = campaign.run()
        with CampaignScheduler(cache=cache, resume=True, **self.TWO_APPS) as campaign:
            warm = campaign.run()
        assert warm.stats.simulations == 0
        assert warm.incremental.resimulated == 0
        assert warm.incremental.reused == cold.stats.points
        assert [row[1] for row in warm.incremental.rows()] == [
            "unchanged",
            "unchanged",
        ]
        assert warm.summary_rows() == cold.summary_rows()

    def test_narrower_run_keeps_other_apps_entries(self, tmp_path):
        """A resumed run of one app keeps the other apps' manifest
        entries, so the next two-app resume reads them ``unchanged``."""
        cache = tmp_path / "cache"
        with CampaignScheduler(cache=cache, **self.TWO_APPS) as campaign:
            cold = campaign.run()
        with CampaignScheduler(
            cache=cache,
            resume=True,
            studies=["url"],
            candidates=CANDIDATES,
            configs={"URL": NARROW["URL"]},
        ) as campaign:
            campaign.run()
        with CampaignScheduler(cache=cache, resume=True, **self.TWO_APPS) as campaign:
            warm = campaign.run()
        assert warm.stats.simulations == 0
        assert warm.incremental.reused == cold.stats.points
        assert [row[1] for row in warm.incremental.rows()] == [
            "unchanged",
            "unchanged",
        ]

    def test_profile_edit_resimulates_only_touched_app(self, tmp_path, monkeypatch):
        # Disjoint trace scopes: URL on BWY-I only, DRR on ANL only.
        configs = {
            "URL": [NetworkConfig("BWY-I")],
            "DRR": [NetworkConfig("ANL")],
        }
        cache = tmp_path / "cache"
        with CampaignScheduler(
            studies=["url", "drr"],
            candidates=CANDIDATES,
            configs=configs,
            cache=cache,
        ) as campaign:
            cold = campaign.run()
        per_app = {row[0]: row for row in cold.incremental.rows()}
        drr_points = per_app["DRR"][3]

        mutated = tuple(
            dataclasses.replace(p, seed=p.seed + 1000) if p.name == "ANL" else p
            for p in profiles.PROFILES
        )
        monkeypatch.setattr(profiles, "PROFILES", mutated)
        monkeypatch.setattr(profiles, "_BY_NAME", {p.name: p for p in mutated})

        with CampaignScheduler(
            studies=["url", "drr"],
            candidates=CANDIDATES,
            configs=configs,
            cache=cache,
            resume=True,
        ) as campaign:
            warm = campaign.run()
        rows = {row[0]: row for row in warm.incremental.rows()}
        assert rows["URL"][1] == "unchanged"
        assert rows["URL"][3] == 0  # nothing resimulated
        assert rows["URL"][2] == per_app["URL"][4]  # fully cache-served
        assert rows["DRR"][1] == "changed"
        assert rows["DRR"][2] == 0  # stale shard invisible
        assert rows["DRR"][3] == drr_points  # full delta resimulated
        assert warm.stats.simulations == drr_points

    def test_grid_edit_resimulates_only_the_delta(self, tmp_path):
        cache = tmp_path / "cache"
        base = {
            "studies": ["route", "url"],
            "candidates": CANDIDATES,
            "configs": {"Route": NARROW["Route"], "URL": NARROW["URL"]},
        }
        with CampaignScheduler(cache=cache, **base) as campaign:
            cold = campaign.run()
        with CampaignScheduler(
            cache=cache,
            resume=True,
            grids={"Route": {"radix_size": [512]}},
            **base,
        ) as campaign:
            warm = campaign.run()
        rows = {row[0]: row for row in warm.incremental.rows()}
        assert rows["URL"][1] == "unchanged" and rows["URL"][3] == 0
        assert rows["Route"][1] == "changed"
        # The grid adds configs on the same traces: the step-1 sweep and
        # the original configurations replay from cache; only survivors
        # x new grid configurations simulate.
        survivors = len(warm.refinements["Route"].step1.survivors)
        new_configs = len(warm.refinements["Route"].step2.configs) - len(
            NARROW["Route"]
        )
        assert new_configs > 0
        assert rows["Route"][4] == survivors * new_configs
        assert 0 < rows["Route"][3] <= rows["Route"][4]
        assert warm.stats.simulations == rows["Route"][3]
        cold_route = {r[0]: r for r in cold.incremental.rows()}["Route"]
        assert rows["Route"][2] == cold_route[4]  # everything else reused

    def test_parallel_resume_replays_and_simulates_only_the_delta(self, tmp_path):
        """Workers + warm cache: all-cached nodes complete synchronously
        inside the parallel launch loop, and a partial-miss node mixes
        cache hits with pool submissions."""
        cache = tmp_path / "cache"
        base = {
            "studies": ["url"],
            "candidates": CANDIDATES,
            "configs": {"URL": NARROW["URL"]},
        }
        with CampaignScheduler(cache=cache, **base) as campaign:
            cold = campaign.run()
        # Fully warm on 2 workers: every node resolves from cache before
        # any future is submitted; continuations still chain step 2.
        with CampaignScheduler(
            cache=cache, workers=2, resume=True, **base
        ) as campaign:
            warm = campaign.run()
        assert warm.stats.simulations == 0
        assert warm.incremental.reused == cold.stats.points
        assert warm.summary_rows() == cold.summary_rows()
        # Partial miss on 2 workers: widen the grid so step 1 and the
        # original configs hit while the new grid points simulate.
        with CampaignScheduler(
            cache=cache,
            workers=2,
            resume=True,
            grids={"URL": {"pattern_count": [32]}},
            **base,
        ) as campaign:
            partial = campaign.run()
        rows = {row[0]: row for row in partial.incremental.rows()}
        assert rows["URL"][1] == "changed"
        assert rows["URL"][2] == cold.stats.points  # hits preserved
        assert rows["URL"][3] > 0  # the delta really ran on the pool
        assert partial.stats.simulations == rows["URL"][3]

    def test_resume_without_manifest_reports_new(self, tmp_path):
        with CampaignScheduler(
            studies=["drr"],
            candidates=CANDIDATES,
            configs={"DRR": NARROW["DRR"]},
            cache=tmp_path / "cache",
            resume=True,
        ) as campaign:
            result = campaign.run()
        assert [row[1] for row in result.incremental.rows()] == ["new"]


class TestAdaptiveScheduling:
    """Manifests written when campaigns still persisted measured node
    costs resume like any other: the costs are ignored, then dropped."""

    def test_costs_do_not_flip_resume_status(self, tmp_path):
        """Recorded timings never look like a change: a manifest with a
        junk ``node_costs`` key, as older builds wrote, resumes
        ``unchanged`` with nothing simulated and is rewritten without
        that key."""
        cache = tmp_path / "cache"
        kwargs = {
            "studies": ["url"],
            "candidates": CANDIDATES,
            "configs": {"URL": NARROW["URL"]},
            "cache": cache,
        }
        with CampaignScheduler(**kwargs) as campaign:
            campaign.run()
        with open(cache / MANIFEST_NAME, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["node_costs"] = {
            "URL": {"application-level": 123.0},
            "__fleet__": {"w": {"capacity": 2, "quota": 3}},
        }
        with open(cache / MANIFEST_NAME, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with CampaignScheduler(resume=True, **kwargs) as campaign:
            warm = campaign.run()
        assert [row[1] for row in warm.incremental.rows()] == ["unchanged"]
        assert warm.stats.simulations == 0
        with open(cache / MANIFEST_NAME, encoding="utf-8") as handle:
            rewritten = json.load(handle)
        assert set(rewritten) == {"version", "apps"}
        assert rewritten["apps"] == payload["apps"]


class TestDDTRefinementGraph:
    def test_progress_stream_matches_plan(self):
        calls = []
        result = DDTRefinement(
            DrrApp,
            configs=NARROW["DRR"],
            candidates=CANDIDATES,
            progress=lambda step, done, total, detail: calls.append(
                (step, done, total)
            ),
        ).run()
        step1 = [c for c in calls if c[0] == "application-level"]
        step2 = [c for c in calls if c[0] == "network-level"]
        n_combos = len(CANDIDATES) ** len(DrrApp.dominant_structures)
        assert [c[1] for c in step1] == list(range(1, n_combos + 1))
        assert all(c[2] == n_combos for c in step1)
        # step-2 counts run 1..total over the full survivor x config grid
        assert [c[1] for c in step2] == list(range(1, step2[-1][2] + 1))
        # ...whose total is the points the graph resolves: reused step-1
        # reference records are not progress events
        assert 0 < result.step2.simulations < len(result.step2.log)
        assert all(c[2] == result.step2.simulations for c in step2)
