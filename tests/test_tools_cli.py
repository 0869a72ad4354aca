"""Tests for the command-line tools and the case-study registry."""

import os

import pytest

from repro.core.casestudies import CASE_STUDIES, case_study, case_study_names
from repro.core.selection import QuantileUnion
from repro.net.profiles import profile
from repro.net.tracegen import generate_trace
from repro.net.trace import write_trace
from repro.tools import explore, traceinfo


class TestCaseStudies:
    def test_four_studies_in_table1_order(self):
        assert case_study_names() == ("Route", "URL", "IPchains", "DRR")

    def test_lookup_case_insensitive(self):
        assert case_study("route").name == "Route"
        assert case_study("DRR").name == "DRR"
        with pytest.raises(KeyError, match="known"):
            case_study("nope")

    def test_exhaustive_counts_match_paper(self):
        """100 combinations x configurations equals the paper's Table 1."""
        for study in CASE_STUDIES:
            combos = 10 ** len(study.app_cls.dominant_structures)
            assert combos * len(study.configs) == study.paper_exhaustive

    def test_route_sweeps_paper_radix_sizes(self):
        study = case_study("Route")
        sizes = {c.param("radix_size") for c in study.configs}
        assert sizes == {128, 256}
        networks = {c.trace_name for c in study.configs}
        assert len(networks) == 7

    def test_ipchains_sweeps_three_rule_counts(self):
        study = case_study("IPchains")
        counts = {c.param("rule_count") for c in study.configs}
        assert len(counts) == 3

    def test_five_network_studies(self):
        for name in ("URL", "DRR"):
            study = case_study(name)
            assert len(study.configs) == 5

    def test_paper_trade_offs_recorded(self):
        for study in CASE_STUDIES:
            assert len(study.paper_trade_offs) == 4
            assert all(0 < v <= 1 for v in study.paper_trade_offs)


class TestTraceinfoCli:
    def test_builtin_profile(self, capsys):
        assert traceinfo.main(["Berry-I"]) == 0
        out = capsys.readouterr().out
        assert "Berry-I" in out
        assert "throughput" in out

    def test_export_and_reparse(self, tmp_path, capsys):
        path = str(tmp_path / "x.trace")
        assert traceinfo.main(["Sudikoff", "--export", path]) == 0
        assert os.path.exists(path)
        capsys.readouterr()
        assert traceinfo.main([path]) == 0
        out = capsys.readouterr().out
        assert "Sudikoff" in out

    def test_file_argument(self, tmp_path, capsys):
        trace = generate_trace(profile("Whittemore"))
        path = str(tmp_path / "w.trace")
        write_trace(trace, path)
        assert traceinfo.main([path]) == 0
        assert "Whittemore" in capsys.readouterr().out

    def test_unknown_name_exits(self):
        with pytest.raises(SystemExit):
            traceinfo.main(["NOPE"])


class TestExploreCli:
    def test_profile_only(self, capsys):
        assert explore.main(["url", "--profile-only"]) == 0
        out = capsys.readouterr().out
        assert "dominant-structure profile" in out
        assert "url_pattern" in out

    def test_unknown_param_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            explore.main(["url", "--param", "bogus=1"])
        assert exited.value.code == 2
        assert (
            "URL reads no parameter 'bogus' (known: pattern_count, server_count)"
            in capsys.readouterr().err
        )

    def test_unknown_trace_is_a_usage_error(self, capsys):
        """Used to end in a KeyError traceback with exit 1."""
        with pytest.raises(SystemExit) as exited:
            explore.main(["url", "--traces", "Nope"])
        assert exited.value.code == 2
        assert "unknown traces: ['Nope']" in capsys.readouterr().err

    def test_param_parsing(self):
        parsed = explore._parse_params(["a=1", "b=2.5", "c=hello"])
        assert parsed == {"a": 1, "b": 2.5, "c": "hello"}
        with pytest.raises(SystemExit):
            explore._parse_params(["bad"])

    def test_small_end_to_end_run(self, tmp_path, capsys):
        """Full CLI run on a narrowed sweep (single trace)."""
        out_dir = str(tmp_path / "results")
        code = explore.main(
            [
                "drr",
                "--traces",
                "Whittemore",
                "--quantile",
                "0.05",
                "--out",
                out_dir,
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3-step exploration finished" in out
        assert "Pareto-optimal" in out
        assert os.path.exists(os.path.join(out_dir, "exploration_log.csv"))
        csvs = [f for f in os.listdir(out_dir) if f.startswith("pareto_")]
        assert len(csvs) >= 2  # both metric pairs

    def test_quantile_default_is_the_library_default(self):
        """Both parsers run the survivor quantile ``QuantileUnion`` (and
        so ``DDTRefinement`` and ``CampaignScheduler``) defaults to."""
        library = QuantileUnion().quantile
        assert explore.build_parser().parse_args(["url"]).quantile == library
        assert explore.build_campaign_parser().parse_args([]).quantile == library

    def test_parser_rejects_unknown_case(self):
        with pytest.raises(SystemExit):
            explore.build_parser().parse_args(["bogus"])
