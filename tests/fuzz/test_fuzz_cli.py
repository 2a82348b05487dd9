"""The ``repro-dpm fuzz`` command group: run, replay, minimize."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.fuzz import Corpus
from repro.platform import PlatformSpec, save_platform


def write_spec(path, **overrides) -> str:
    data = {
        "format": "repro-platform/1",
        "name": "cli-fuzz-spec",
        "ips": [
            {
                "name": "ip0",
                "workload": {
                    "kind": "periodic",
                    "task_count": 3,
                    "cycles": 10_000,
                    "idle_us": 400.0,
                },
            }
        ],
        "max_time_ms": 150.0,
    }
    data.update(overrides)
    save_platform(PlatformSpec.from_dict(data), str(path))
    return str(path)


class TestParser:
    def test_fuzz_appears_in_help(self):
        assert "fuzz" in build_parser().format_help()

    def test_run_defaults(self):
        args = build_parser().parse_args(["fuzz", "run"])
        assert args.examples == 100 and args.seed == 0
        assert args.oracles is None

    def test_replay_accepts_targets(self):
        args = build_parser().parse_args(["fuzz", "replay", "abc123", "def456"])
        assert args.targets == ["abc123", "def456"]

    def test_missing_subcommand_is_an_error(self, capsys):
        assert main(["fuzz"]) == 2
        assert "subcommand" in capsys.readouterr().err


class TestFuzzRun:
    def test_small_run_is_green(self, capsys):
        assert main(["fuzz", "run", "--examples", "3", "--seed", "1",
                     "--corpus", "none", "--oracles", "structural"]) == 0
        assert "all oracles agreed" in capsys.readouterr().out

    def test_failing_run_saves_and_exits_nonzero(
        self, tmp_path, lost_transition_residency, capsys
    ):
        corpus_dir = tmp_path / "corpus"
        assert main(["fuzz", "run", "--examples", "40", "--seed", "0",
                     "--corpus", str(corpus_dir),
                     "--oracles", "structural"]) == 1
        out = capsys.readouterr().out
        assert "structural" in out
        assert len(Corpus(corpus_dir).entries()) == 1


class TestFuzzReplay:
    def test_empty_corpus_is_a_clean_no_op(self, tmp_path, capsys):
        assert main(["fuzz", "replay", "--corpus", str(tmp_path / "empty")]) == 0
        assert "no corpus entries" in capsys.readouterr().out

    def test_replays_a_saved_entry_by_prefix(self, tmp_path, capsys):
        corpus = Corpus(tmp_path)
        spec = PlatformSpec.from_dict(json.loads(
            open(write_spec(tmp_path / "spec.json"), encoding="utf-8").read()
        ))
        saved = corpus.save(spec)
        assert main(["fuzz", "replay", saved.stem[:8], "--corpus", str(tmp_path),
                     "--oracles", "structural"]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 spec(s), 0 failing" in out

    def test_default_targets_are_the_whole_corpus(self, tmp_path, capsys):
        corpus = Corpus(tmp_path)
        spec_path = write_spec(tmp_path / "spec.json")
        corpus.save(PlatformSpec.from_dict(json.loads(
            open(spec_path, encoding="utf-8").read()
        )))
        os.remove(spec_path)  # only the corpus entry remains
        assert main(["fuzz", "replay", "--corpus", str(tmp_path),
                     "--oracles", "structural"]) == 0
        assert "replayed 1 spec(s)" in capsys.readouterr().out


class TestFuzzMinimize:
    def test_passing_spec_is_rejected(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path / "spec.json")
        assert main(["fuzz", "minimize", spec_path,
                     "--oracles", "structural"]) == 2
        assert "nothing to minimize" in capsys.readouterr().err

    def test_minimizes_a_failing_spec(self, tmp_path, lost_transition_residency, capsys):
        spec_path = write_spec(
            tmp_path / "spec.json",
            ips=[
                {
                    "name": "ip0",
                    "workload": {
                        "kind": "periodic",
                        "task_count": 6,
                        "cycles": 10_000,
                        "idle_us": 400.0,
                    },
                    "idle_activity": 0.3,
                },
                {
                    "name": "ip1",
                    "workload": {"kind": "random", "task_count": 4, "seed": 9},
                },
            ],
            battery={"condition": "medium"},
        )
        out_path = tmp_path / "minimized.json"
        assert main(["fuzz", "minimize", spec_path, "--out", str(out_path),
                     "--oracles", "structural"]) == 0
        assert out_path.exists()
        minimized = PlatformSpec.from_dict(
            json.loads(out_path.read_text(encoding="utf-8"))
        )
        # strictly simpler than the input, and still failing under the bug
        assert len(minimized.ips) == 1
        assert "minimized spec written" in capsys.readouterr().out
