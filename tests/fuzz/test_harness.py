"""The fuzz loop end-to-end: green runs, shrinking, corpus saving, replay."""

from __future__ import annotations

from repro.fuzz import Corpus, replay_corpus, run_fuzz


class TestGreenRun:
    def test_small_green_run(self):
        report = run_fuzz(examples=5, seed=0)
        assert report.ok
        assert report.runs == 5
        assert report.failure is None and report.saved_path is None
        assert "all oracles agreed" in report.summary()

    def test_same_seed_reproduces_the_same_run(self):
        first = run_fuzz(examples=5, seed=3, oracles=["structural"])
        second = run_fuzz(examples=5, seed=3, oracles=["structural"])
        assert first.ok and second.ok
        assert first.runs == second.runs
        assert first.skips == second.skips


class TestFailingRun:
    def test_injected_bug_is_shrunk_saved_and_replayable(
        self, lost_transition_residency, tmp_path
    ):
        corpus = Corpus(tmp_path)
        report = run_fuzz(examples=50, seed=0, corpus=corpus)
        assert not report.ok
        assert {v.oracle for v in report.failure.result.failures} == {"structural"}
        assert report.saved_path is not None
        assert len(corpus.entries()) == 1
        # the saved spec is a valid platform and replays deterministically:
        # still failing under the planted bug...
        results = replay_corpus([report.saved_path], corpus=corpus)
        assert len(results) == 1 and not results[0].ok

    def test_without_corpus_nothing_is_saved(self, lost_transition_residency):
        report = run_fuzz(examples=50, seed=0, corpus=None)
        assert not report.ok and report.saved_path is None

    def test_saved_spec_passes_once_the_bug_is_fixed(self, tmp_path):
        # companion to the test above: the same fuzz campaign against the
        # unbroken code is green, so the finding was the bug, not noise.
        report = run_fuzz(examples=50, seed=0, corpus=Corpus(tmp_path))
        assert report.ok, report.summary()
