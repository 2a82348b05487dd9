"""Tests for the longitudinal CI bench dashboard aggregator."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_MODULE_PATH = Path(__file__).parent.parent / "benchmarks" / "bench_dashboard.py"
_spec = importlib.util.spec_from_file_location("bench_dashboard", _MODULE_PATH)
dashboard = importlib.util.module_from_spec(_spec)
sys.modules["bench_dashboard"] = dashboard
_spec.loader.exec_module(dashboard)


def bench_json(speeds):
    """Synthesise a pytest-benchmark report with our extra_info layout.

    Keys are scenario names.
    """
    benchmarks = []
    for scenario, speed in speeds.items():
        benchmarks.append(
            {
                "name": f"test_simulation_speed_{scenario}",
                "extra_info": {
                    "kilocycles_per_second": speed,
                    "scenario": scenario,
                },
            }
        )
    return {"benchmarks": benchmarks}


@pytest.fixture(autouse=True)
def isolate_step_summary(monkeypatch):
    # Running the suite on a real CI runner must not scribble dashboards
    # into the runner's own job summary; tests opt in explicitly instead.
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


SPEEDS_V1 = {"A1": 3000.0, "B": 1200.0}
SPEEDS_OK = {"A1": 2900.0, "B": 1150.0}
SPEEDS_REGRESSED = {"A1": 2000.0, "B": 1150.0}


class TestExtractResults:
    def test_labels_and_values(self):
        results = dashboard.extract_results(bench_json(SPEEDS_V1))
        assert results == {"A1": 3000.0, "B": 1200.0}

    def test_benchmarks_without_speed_are_skipped(self):
        report = {"benchmarks": [{"name": "kernel", "extra_info": {"timed_events": 5}}]}
        assert dashboard.extract_results(report) == {}


class TestHistory:
    def test_append_creates_and_orders_entries(self):
        history = dashboard.append_entry({}, "aaa", {"A1": 1.0}, timestamp=1.0)
        history = dashboard.append_entry(history, "bbb", {"A1": 2.0}, timestamp=2.0)
        assert [e["commit"] for e in history["entries"]] == ["aaa", "bbb"]

    def test_same_commit_replaces_its_entry(self):
        history = dashboard.append_entry({}, "aaa", {"A1": 1.0}, timestamp=1.0)
        history = dashboard.append_entry(history, "aaa", {"A1": 3.0}, timestamp=2.0)
        assert len(history["entries"]) == 1
        assert history["entries"][0]["results"]["A1"] == 3.0

    def test_history_is_bounded(self):
        history = {}
        for index in range(dashboard.MAX_ENTRIES + 10):
            history = dashboard.append_entry(
                history, f"c{index}", {"A1": 1.0}, timestamp=float(index)
            )
        assert len(history["entries"]) == dashboard.MAX_ENTRIES


class TestRegressionGate:
    def _history(self, first, second):
        history = dashboard.append_entry({}, "one", dashboard.extract_results(bench_json(first)), 1.0)
        return dashboard.append_entry(history, "two", dashboard.extract_results(bench_json(second)), 2.0)

    def test_no_regression_within_threshold(self):
        history = self._history(SPEEDS_V1, SPEEDS_OK)
        assert dashboard.find_regressions(history, threshold=0.20) == []

    def test_exact_regression_detected(self):
        history = self._history(SPEEDS_V1, SPEEDS_REGRESSED)
        regressions = dashboard.find_regressions(history, threshold=0.20)
        assert [r[0] for r in regressions] == ["A1"]
        _, prev, cur, drop = regressions[0]
        assert (prev, cur) == (3000.0, 2000.0)
        assert drop == pytest.approx(1.0 / 3.0)

    def test_single_entry_never_fails(self):
        history = dashboard.append_entry({}, "one", {"A1": 1.0}, 1.0)
        assert dashboard.find_regressions(history, threshold=0.20) == []

    def test_missing_series_is_not_a_regression(self):
        """A gated series that the current run did not record (its benchmark
        was renamed or skipped) must not gate the merge."""
        with_extra = dict(SPEEDS_V1)
        with_extra["C"] = 9000.0
        history = self._history(with_extra, SPEEDS_OK)
        assert dashboard.find_regressions(history, threshold=0.20) == []


class TestMarkdownAndMain:
    def test_markdown_contains_commits_and_labels(self):
        history = dashboard.append_entry({}, "abcdef1234567890", {"A1": 2950.5}, 1.0)
        text = dashboard.render_markdown(history)
        assert "| commit | A1 |" in text
        assert "`abcdef1234`" in text
        assert "2,950" in text

    def test_main_end_to_end_and_gate(self, tmp_path):
        current = tmp_path / "BENCH_sim_speed.json"
        history = tmp_path / "BENCH_history.json"
        markdown = tmp_path / "BENCH_dashboard.md"

        current.write_text(json.dumps(bench_json(SPEEDS_V1)))
        argv = [
            "--current", str(current), "--history", str(history),
            "--markdown", str(markdown), "--fail-threshold", "0.20",
        ]
        assert dashboard.main(argv + ["--commit", "commit-1"]) == 0
        assert json.loads(history.read_text())["entries"][0]["commit"] == "commit-1"
        assert markdown.is_file()

        current.write_text(json.dumps(bench_json(SPEEDS_OK)))
        assert dashboard.main(argv + ["--commit", "commit-2"]) == 0
        assert len(json.loads(history.read_text())["entries"]) == 2

        current.write_text(json.dumps(bench_json(SPEEDS_REGRESSED)))
        assert dashboard.main(argv + ["--commit", "commit-3"]) == 1

    def test_first_run_notes_the_missing_baseline(self, tmp_path, capsys):
        current = tmp_path / "BENCH_sim_speed.json"
        current.write_text(json.dumps(bench_json(SPEEDS_V1)))
        code = dashboard.main(
            ["--current", str(current), "--history", str(tmp_path / "h.json"),
             "--commit", "first"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "starting a new history" in out
        assert "no baseline yet" in out

    def test_empty_history_file_is_tolerated(self, tmp_path, capsys):
        # actions/cache can restore a zero-byte file from an interrupted run.
        current = tmp_path / "BENCH_sim_speed.json"
        history = tmp_path / "BENCH_history.json"
        current.write_text(json.dumps(bench_json(SPEEDS_V1)))
        history.write_text("")
        code = dashboard.main(
            ["--current", str(current), "--history", str(history), "--commit", "c1"]
        )
        assert code == 0
        assert "is empty; starting a new history" in capsys.readouterr().out
        assert json.loads(history.read_text())["entries"][0]["commit"] == "c1"

    def test_markdown_lands_in_the_step_summary(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        current = tmp_path / "BENCH_sim_speed.json"
        current.write_text(json.dumps(bench_json(SPEEDS_V1)))
        assert dashboard.main(
            ["--current", str(current), "--history", str(tmp_path / "h.json"),
             "--commit", "summarized"]
        ) == 0
        text = summary.read_text()
        assert "# Simulation-speed dashboard" in text
        assert "`summarized`" in text

    def test_main_rejects_empty_report(self, tmp_path):
        current = tmp_path / "empty.json"
        current.write_text(json.dumps({"benchmarks": []}))
        code = dashboard.main(
            ["--current", str(current), "--history", str(tmp_path / "h.json"),
             "--commit", "x"]
        )
        assert code == 2
