"""CLI --trace flags, `platform diff`, and campaign per-job tracing."""

import json

from repro.campaign import CampaignSpec, run_campaign
from repro.cli import build_parser, main


class TestTraceFlagsParsing:
    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_bare_trace_means_jsonl(self):
        assert self.parse(["scenario", "A1", "--trace"]).trace == "jsonl"

    def test_trace_with_format(self):
        assert self.parse(["scenario", "A1", "--trace", "perfetto"]).trace == "perfetto"

    def test_default_is_untraced(self):
        args = self.parse(["scenario", "A1"])
        assert args.trace is None and args.trace_format is None

    def test_platform_run_takes_trace_flags(self):
        args = self.parse(["platform", "run", "--name", "A1",
                           "--trace-format", "vcd", "--trace-out", "x.vcd"])
        assert args.trace_format == "vcd"
        assert args.trace_out == "x.vcd"

    def test_campaign_run_takes_trace(self):
        args = self.parse(["campaign", "run", "spec.json", "--trace"])
        assert args.trace == "jsonl"

    def test_platform_diff_positionals(self):
        args = self.parse(["platform", "diff", "A1", "A2"])
        assert (args.spec_a, args.spec_b) == ("A1", "A2")


class TestScenarioTraceCli:
    def test_scenario_writes_trace_and_prints_path(self, tmp_path, capsys):
        out = tmp_path / "a1.jsonl"
        assert main(["scenario", "A1", "--trace", "--trace-out", str(out)]) == 0
        assert str(out) in capsys.readouterr().out
        assert out.is_file()
        first = json.loads(out.read_text().splitlines()[0])
        assert {"t_fs", "kind", "source"} <= set(first)

    def test_platform_run_perfetto(self, tmp_path, capsys):
        out = tmp_path / "a1.json"
        assert main(["platform", "run", "--name", "A1",
                     "--trace", "perfetto", "--trace-out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["traceEvents"]


class TestPlatformDiffCli:
    def test_identical_specs_exit_zero(self, capsys):
        assert main(["platform", "diff", "A1", "A1"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_different_specs_exit_one_and_report_paths(self, capsys):
        assert main(["platform", "diff", "A1", "A2"]) == 1
        out = capsys.readouterr().out
        assert "battery.condition" in out

    def test_file_vs_registered_name(self, tmp_path, capsys):
        from repro.platform import platform_by_name, save_platform

        path = tmp_path / "a1.json"
        save_platform(platform_by_name("A1"), path)
        assert main(["platform", "diff", str(path), "A1"]) == 0

    def test_unknown_name_is_a_clean_error(self, capsys):
        assert main(["platform", "diff", "A1", "no-such-platform"]) == 2
        assert "error" in capsys.readouterr().err


class TestCampaignTracing:
    def _spec(self):
        return CampaignSpec.from_dict({
            "name": "traced",
            "scenarios": [{"kind": "paper", "name": "A1"}],
            "setups": [{"name": "paper"}],
        })

    def test_per_job_traces_stored_and_linked(self, tmp_path):
        directory = tmp_path / "camp"
        summary = run_campaign(self._spec(), directory, trace_format="jsonl")
        assert summary.ok == 1
        record = summary.records[0]
        trace_path = record["trace"]
        assert trace_path.endswith(".jsonl")
        assert (directory / "traces").is_dir()
        lines = open(trace_path).read().splitlines()
        assert lines
        json.loads(lines[0])

    def test_trace_does_not_change_job_ids_or_metrics(self, tmp_path):
        plain = run_campaign(self._spec(), tmp_path / "plain")
        traced = run_campaign(self._spec(), tmp_path / "traced",
                              trace_format="perfetto")
        assert plain.records[0]["job_id"] == traced.records[0]["job_id"]
        wall_clock_keys = ("wall_clock_s", "kilocycles_per_second")
        strip = lambda metrics: {k: v for k, v in metrics.items()
                                 if k not in wall_clock_keys}
        assert strip(plain.records[0]["metrics"]) == strip(traced.records[0]["metrics"])
        assert "trace" not in plain.records[0]

    def test_vcd_rejected_for_campaigns(self, tmp_path):
        import pytest

        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            run_campaign(self._spec(), tmp_path / "camp", trace_format="vcd")
