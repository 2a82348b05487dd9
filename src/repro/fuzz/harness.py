"""The differential fuzz harness: generate, run, shrink, save.

:func:`run_fuzz` drives Hypothesis over :func:`~repro.fuzz.strategies.
platform_specs`: every generated platform goes through
:func:`~repro.experiments.differential.run_differential`, and the first
platform that trips an oracle is *shrunk* by Hypothesis to a minimal
counterexample, saved to the content-addressed corpus and reported in the
returned :class:`FuzzReport`.  A fixed ``seed`` makes the whole run — the
generated platforms, the shrink sequence and the saved file — reproducible
bit for bit; the workload seeds inside each spec are explicit fields drawn
by the strategies, so replaying the *saved spec* needs no Hypothesis at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.experiments.differential import DifferentialResult, run_differential
from repro.fuzz.corpus import Corpus
from repro.fuzz.strategies import platform_specs
from repro.platform.spec import PlatformSpec

__all__ = ["FuzzFailure", "FuzzReport", "replay_corpus", "run_fuzz"]


class FuzzFailure(AssertionError):
    """Raised inside the Hypothesis property when an oracle fails.

    Subclasses :class:`AssertionError` so Hypothesis treats it as a normal
    counterexample (shrinks it) rather than an error in the harness itself.
    """

    def __init__(self, spec: PlatformSpec, result: DifferentialResult) -> None:
        super().__init__(result.summary())
        self.spec = spec
        self.result = result


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` campaign."""

    examples: int = 0
    seed: int = 0
    elapsed_s: float = 0.0
    #: differential runs actually executed (includes Hypothesis shrink steps)
    runs: int = 0
    #: the shrunk failing spec, when an oracle failed
    failure: Optional[FuzzFailure] = None
    #: where the shrunk failure was saved (None when green or no corpus)
    saved_path: Optional[str] = None
    skips: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def examples_per_second(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.runs / self.elapsed_s

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.runs} differential runs "
            f"({self.examples} requested, seed {self.seed}) in "
            f"{self.elapsed_s:.1f}s — {self.examples_per_second():.1f} examples/s"
        ]
        for oracle, count in sorted(self.skips.items()):
            lines.append(f"  ~ {oracle}: skipped in {count} run(s)")
        if self.failure is None:
            lines.append("  all oracles agreed on every generated platform")
        else:
            lines.append("  shrunk counterexample:")
            lines.extend("  " + line for line in self.failure.result.summary().splitlines())
            if self.saved_path:
                lines.append(f"  saved to {self.saved_path}")
        return "\n".join(lines)


def run_fuzz(
    examples: int = 100,
    seed: int = 0,
    oracles: Optional[Sequence[str]] = None,
    corpus: Optional[Corpus] = None,
    max_ips: int = 3,
) -> FuzzReport:
    """Fuzz ``examples`` generated platforms through the differential oracles.

    Returns a :class:`FuzzReport`; when an oracle failed, the report carries
    the *shrunk* counterexample and (when ``corpus`` is given) the path the
    failing spec was saved under.  Never raises on oracle failures — the
    caller decides what a failure means (the CLI exits nonzero, the nightly
    CI job uploads the corpus file).
    """
    from hypothesis import HealthCheck, Phase, given
    from hypothesis import seed as hypothesis_seed
    from hypothesis import settings as hypothesis_settings

    report = FuzzReport(examples=examples, seed=seed)

    @hypothesis_settings(
        max_examples=examples,
        deadline=None,
        database=None,  # stateless: reproducibility comes from --seed alone
        derandomize=False,
        suppress_health_check=list(HealthCheck),
        phases=(Phase.generate, Phase.shrink),
        print_blob=False,
    )
    @hypothesis_seed(seed)
    @given(spec=platform_specs(max_ips=max_ips))
    def check(spec: PlatformSpec) -> None:
        report.runs += 1
        result = run_differential(spec, oracles=oracles)
        for verdict in result.verdicts:
            if verdict.status == "skip":
                report.skips[verdict.oracle] = report.skips.get(verdict.oracle, 0) + 1
        if not result.ok:
            raise FuzzFailure(spec, result)

    start = time.perf_counter()  # repro-lint: allow[DET-WALLCLOCK]
    try:
        check()
    except FuzzFailure as failure:
        # Hypothesis re-raises the failure of the *minimal* shrunk example.
        report.failure = failure
        if corpus is not None:
            reason = "; ".join(
                f"{verdict.oracle}: {verdict.detail}" if verdict.detail else verdict.oracle
                for verdict in failure.result.failures
            )
            report.saved_path = str(corpus.save(failure.spec, reason=reason))
    report.elapsed_s = time.perf_counter() - start  # repro-lint: allow[DET-WALLCLOCK]
    return report


def replay_corpus(
    targets: Sequence[str],
    corpus: Optional[Corpus] = None,
    oracles: Optional[Sequence[str]] = None,
) -> List[DifferentialResult]:
    """Replay corpus entries (paths, directories, or hash prefixes).

    A directory target expands to every ``*.json`` inside it; other targets
    resolve through :meth:`Corpus.load`.  Returns one
    :class:`DifferentialResult` per replayed spec, in replay order.
    """
    import os

    corpus = corpus or Corpus()
    specs: List[PlatformSpec] = []
    for target in targets:
        if os.path.isdir(target):
            for path in Corpus(target).entries():
                specs.append(corpus.load(path))
        else:
            specs.append(corpus.load(target))
    return [run_differential(spec, oracles=oracles) for spec in specs]
