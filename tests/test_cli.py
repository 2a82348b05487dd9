"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro-dpm" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "table2" in capsys.readouterr().out

    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("table2", "scenario", "rules", "sweep", "speed", "breakeven",
                        "report", "campaign", "reach"):
            assert command in text


class TestParserRoundTrips:
    """Every subcommand parses back the arguments it documents."""

    def parse(self, argv):
        return build_parser().parse_args(argv)

    def test_table2(self):
        args = self.parse(["table2", "A1", "B", "--setup", "greedy-sleep"])
        assert args.command == "table2"
        assert args.scenarios == ["A1", "B"]
        assert args.setup == "greedy-sleep"

    def test_scenario(self):
        args = self.parse(["scenario", "A3", "--setup", "oracle"])
        assert args.command == "scenario"
        assert args.name == "A3"
        assert args.setup == "oracle"

    def test_rules(self):
        args = self.parse(["rules", "--priority", "low", "--battery", "full",
                           "--temperature", "high"])
        assert (args.priority, args.battery, args.temperature) == ("low", "full", "high")

    def test_sweep(self):
        assert self.parse(["sweep", "--tasks", "12"]).tasks == 12

    def test_speed_and_breakeven(self):
        assert self.parse(["speed"]).command == "speed"
        assert self.parse(["breakeven"]).command == "breakeven"

    def test_report(self):
        args = self.parse(["report", "A1", "-o", "out.md", "--with-speed"])
        assert args.scenarios == ["A1"]
        assert args.output == "out.md"
        assert args.with_speed is True

    def test_campaign_run(self):
        args = self.parse(["campaign", "run", "grid.json", "--dir", "d",
                           "--workers", "4", "--resume", "--timeout", "2.5"])
        assert args.command == "campaign"
        assert args.campaign_command == "run"
        assert args.spec == "grid.json"
        assert args.directory == "d"
        assert args.workers == 4
        assert args.resume is True
        assert args.timeout == 2.5

    def test_campaign_status_and_report(self):
        status = self.parse(["campaign", "status", "some/dir"])
        assert status.campaign_command == "status"
        assert status.directory == "some/dir"
        report = self.parse(["campaign", "report", "some/dir", "-o", "out.txt"])
        assert report.campaign_command == "report"
        assert report.output == "out.txt"

    def test_invalid_setup_choice_rejected(self, capsys):
        with pytest.raises(SystemExit):
            self.parse(["table2", "--setup", "warp-drive"])


class TestRulesCommand:
    def test_print_full_table(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "t1-row1" in out
        assert "ON4" in out

    def test_query_single_combination(self, capsys):
        assert main(["rules", "--priority", "very_high", "--battery", "empty",
                     "--temperature", "low"]) == 0
        assert "ON4" in capsys.readouterr().out

    def test_partial_query_is_an_error(self, capsys):
        assert main(["rules", "--priority", "low"]) == 2
        assert "together" in capsys.readouterr().err


class TestBreakevenCommand:
    def test_breakeven_lists_sleep_states(self, capsys):
        assert main(["breakeven"]) == 0
        out = capsys.readouterr().out
        for state in ("SL1", "SL2", "SL3", "SL4", "OFF"):
            assert state in out


class TestScenarioCommands:
    def test_scenario_command_runs_a_row(self, capsys):
        assert main(["scenario", "A1"]) == 0
        out = capsys.readouterr().out
        assert "energy saving" in out
        assert "Scenario A1" in out

    def test_scenario_with_alternative_setup(self, capsys):
        assert main(["scenario", "A1", "--setup", "greedy-sleep"]) == 0
        assert "greedy-sleep" in capsys.readouterr().out

    def test_table2_subset(self, capsys):
        assert main(["table2", "A1"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out
        assert "Saving % (paper)" in out


class TestReachCommand:
    def test_registered_platform_prints_envelope(self, capsys):
        assert main(["reach", "A1"]) == 0
        out = capsys.readouterr().out
        assert "reach: A1" in out
        assert "battery" in out and "thermal" in out
        assert "iterations" in out

    def test_spec_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "format": "repro-platform/1",
            "name": "filed",
            "ips": [{"name": "cpu", "workload": {
                "kind": "periodic", "task_count": 4,
                "cycles": 10000, "idle_us": 200.0,
            }}],
        }))
        assert main(["reach", str(path)]) == 0
        assert "reach: filed" in capsys.readouterr().out

    def test_unknown_platform_exit_2(self, capsys):
        assert main(["reach", "no-such-platform"]) == 2
        assert "no-such-platform" in capsys.readouterr().err


class TestCampaignCommand:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "cli-grid",
            "scenarios": [
                {"kind": "single_ip", "name": "s1", "battery": "low",
                 "temperature": "low", "task_count": 5},
            ],
            "setups": ["paper", "always-on"],
            "seeds": [1, 2],
        }))
        return path

    def test_missing_subcommand_is_an_error(self, capsys):
        assert main(["campaign"]) == 2
        assert "subcommand" in capsys.readouterr().err

    def test_invalid_spec_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "scenarios": ["A1"], "setup": ["paper"]}')
        assert main(["campaign", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "setup" in err

    def test_removed_fast_accuracy_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "fast.json"
        path.write_text(json.dumps({
            "name": "x", "scenarios": ["A1"], "setups": ["paper"], "accuracy": "fast",
        }))
        assert main(["campaign", "run", str(path), "--dir", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown accuracy mode 'fast'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_missing_spec_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["campaign", "run", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_status_without_manifest_is_a_clean_error(self, tmp_path, capsys):
        assert main(["campaign", "status", str(tmp_path / "empty")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_run_status_report_cycle(self, spec_file, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        assert main(["campaign", "run", str(spec_file), "--dir", directory,
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out
        assert "4 executed" in out

        assert main(["campaign", "status", directory]) == 0
        out = capsys.readouterr().out
        assert "ok:      4" in out
        assert "missing: 0" in out

        assert main(["campaign", "report", directory]) == 0
        out = capsys.readouterr().out
        assert "s1/paper/seed=1" in out
        assert "aggregate" in out

    def test_resume_skips_everything(self, spec_file, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        assert main(["campaign", "run", str(spec_file), "--dir", directory,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(spec_file), "--dir", directory,
                     "--resume", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out
        assert "4 skipped" in out

    def test_platform_grid_preflight_prints_and_gates(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({
            "name": "platform-grid",
            "scenarios": ["iot-duty-cycle"],
            "setups": ["paper"],
            "seeds": [1],
        }))
        directory = str(tmp_path / "camp")
        assert main(["campaign", "run", str(good), "--dir", directory]) == 0
        assert "preflight ok: iot-duty-cycle" in capsys.readouterr().out

    def test_preflight_failure_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "bad-grid",
            "scenarios": [{"kind": "platform", "spec": {
                "format": "repro-platform/1",
                "name": "bad-rules",
                "ips": [{"name": "cpu", "workload": {
                    "kind": "periodic", "task_count": 4,
                    "cycles": 10000, "idle_us": 200.0,
                }}],
                "policy": {"name": "paper",
                           "rules": [{"state": "ON1", "priorities": ["high"]}]},
                "battery": {"state_of_charge": 0.4, "capacity_j": 50.0},
            }}],
            "setups": ["paper"],
            "seeds": [1],
        }))
        directory = str(tmp_path / "camp")
        assert main(["campaign", "run", str(bad), "--dir", directory]) == 2
        err = capsys.readouterr().err
        assert "preflight" in err and "bad-rules" in err
        # --no-preflight bypasses the gate.
        assert main(["campaign", "run", str(bad), "--dir", directory,
                     "--no-preflight", "--quiet"]) == 0

    def test_report_ignores_records_dropped_from_the_grid(self, tmp_path, capsys):
        def spec_with_seeds(seeds):
            path = tmp_path / "grid.json"
            path.write_text(json.dumps({
                "name": "shrink",
                "scenarios": [{"kind": "single_ip", "name": "s1", "battery": "low",
                               "temperature": "low", "task_count": 5}],
                "setups": ["paper"],
                "seeds": seeds,
            }))
            return path

        directory = str(tmp_path / "camp")
        main(["campaign", "run", str(spec_with_seeds([1, 2])), "--dir", directory,
              "--quiet"])
        # Shrink the grid in place: seed 2's record is now stale.
        main(["campaign", "run", str(spec_with_seeds([1])), "--dir", directory,
              "--resume", "--quiet"])
        capsys.readouterr()
        assert main(["campaign", "report", directory]) == 0
        captured = capsys.readouterr()
        assert "s1/paper/seed=1" in captured.out
        assert "seed=2" not in captured.out
        assert "ignoring 1 stored record" in captured.err

    def test_report_to_file(self, spec_file, tmp_path, capsys):
        directory = str(tmp_path / "camp")
        main(["campaign", "run", str(spec_file), "--dir", directory, "--quiet"])
        output = tmp_path / "report.txt"
        assert main(["campaign", "report", directory, "-o", str(output)]) == 0
        assert "aggregate" in output.read_text()
