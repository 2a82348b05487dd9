"""Longitudinal simulation-speed dashboard.

Folds the per-commit ``BENCH_sim_speed.json`` artifacts produced by the CI
``bench-smoke`` job into a running ``BENCH_history.json`` plus a markdown
table (Kcycle/s per commit), and gates merges: the job fails when any
benchmark regresses by more than the threshold against the previous recorded
runs.

Usage (what the ``bench-dashboard`` CI job runs)::

    python benchmarks/bench_dashboard.py \
        --current BENCH_sim_speed.json \
        --history BENCH_history.json \
        --markdown BENCH_dashboard.md \
        --commit "$GITHUB_SHA" \
        --fail-threshold 0.20

The module is import-safe (no pytest dependency) so the aggregation logic is
unit-testable; only ``main`` touches the filesystem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "extract_results",
    "append_entry",
    "find_regressions",
    "render_markdown",
    "main",
]

#: keep at most this many history entries (one per commit)
MAX_ENTRIES = 200


def extract_results(bench_json: dict) -> Dict[str, float]:
    """Pull ``{benchmark-label: Kcycle/s}`` out of a pytest-benchmark report.

    The label is the ``scenario`` the benchmark recorded (see
    ``bench_sim_speed.py``); other benchmarks fall back to their test name
    and whatever throughput figure they exposed.
    """
    results: Dict[str, float] = {}
    for bench in bench_json.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        speed = extra.get("kilocycles_per_second")
        if speed is None:
            continue
        label = extra.get("scenario") or bench.get("name", "unknown")
        results[label] = float(speed)
    return results


def append_entry(
    history: dict,
    commit: str,
    results: Dict[str, float],
    timestamp: Optional[float] = None,
) -> dict:
    """Append (or replace) the entry of ``commit`` in the history document."""
    if not isinstance(history, dict) or "entries" not in history:
        history = {"entries": []}
    entries: List[dict] = [
        entry for entry in history["entries"] if entry.get("commit") != commit
    ]
    entries.append(
        {
            "commit": commit,
            "timestamp": timestamp if timestamp is not None else time.time(),
            "results": dict(results),
        }
    )
    history["entries"] = entries[-MAX_ENTRIES:]
    return history


def find_regressions(
    history: dict,
    threshold: float,
    reference_window: int = 3,
) -> List[Tuple[str, float, float, float]]:
    """Compare the newest entry against recent history.

    Returns ``(label, reference, current, drop_fraction)`` for every
    benchmark whose throughput dropped by more than ``threshold`` against
    the *median of the last ``reference_window`` prior entries* —
    single-round wall-clock figures on shared CI runners are noisy, and the
    median damps one slow previous run from poisoning the reference (and
    one slow current run still has to undercut the median of three to
    fail).  A series the newest entry did not record is not gated.
    """
    entries = history.get("entries", [])
    if len(entries) < 2:
        return []
    current = entries[-1]["results"]
    window = entries[-1 - reference_window : -1] or entries[-2:-1]
    labels = {label for entry in window for label in entry["results"]}
    regressions = []
    for label in sorted(labels):
        speeds = [
            entry["results"][label] for entry in window if label in entry["results"]
        ]
        if not speeds:
            continue
        speeds.sort()
        reference = speeds[len(speeds) // 2]
        cur_speed = current.get(label)
        if cur_speed is None or reference <= 0.0:
            continue
        drop = (reference - cur_speed) / reference
        if drop > threshold:
            regressions.append((label, reference, cur_speed, drop))
    return regressions


def render_markdown(history: dict, max_rows: int = 25) -> str:
    """Markdown table: one row per commit, one column per benchmark."""
    entries = history.get("entries", [])[-max_rows:]
    labels = sorted({label for entry in entries for label in entry["results"]})
    lines = [
        "# Simulation-speed dashboard",
        "",
        "Kcycle/s per commit.",
        "",
        "| commit | " + " | ".join(labels) + " |",
        "|---" * (len(labels) + 1) + "|",
    ]
    for entry in entries:
        cells = []
        for label in labels:
            speed = entry["results"].get(label)
            cells.append("-" if speed is None else f"{speed:,.0f}")
        lines.append(f"| `{entry['commit'][:10]}` | " + " | ".join(cells) + " |")
    if len(entries) >= 2:
        lines.append("")
        first, last = entries[0], entries[-1]
        for label in labels:
            a, b = first["results"].get(label), last["results"].get(label)
            if a and b:
                lines.append(
                    f"- `{label}`: {a:,.0f} → {b:,.0f} Kcycle/s "
                    f"({b / a:.2f}x over {len(entries)} commits)"
                )
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True, help="BENCH_sim_speed.json of this run")
    parser.add_argument("--history", required=True, help="history file (created if missing)")
    parser.add_argument("--markdown", default=None, help="markdown dashboard output file")
    parser.add_argument("--commit", required=True, help="commit SHA of this run")
    parser.add_argument(
        "--fail-threshold",
        type=float,
        default=0.20,
        help="fail on a drop larger than this fraction (default 0.20)",
    )
    args = parser.parse_args(argv)

    with open(args.current, "r", encoding="utf-8") as handle:
        results = extract_results(json.load(handle))
    if not results:
        print("error: no benchmark results with kilocycles_per_second found", file=sys.stderr)
        return 2

    # The history file may be missing (first run ever), zero bytes (an
    # actions/cache restore of a failed previous run) or corrupt; all three
    # mean the same thing — start a fresh history, loudly, not with a crash.
    try:
        with open(args.history, "r", encoding="utf-8") as handle:
            text = handle.read()
        history = json.loads(text) if text.strip() else {"entries": []}
        if not text.strip():
            print(f"note: {args.history} is empty; starting a new history")
    except FileNotFoundError:
        history = {"entries": []}
        print(f"note: no history at {args.history}; starting a new history")
    except (OSError, json.JSONDecodeError) as error:
        history = {"entries": []}
        print(f"note: could not read {args.history} ({error}); starting a new history")

    history = append_entry(history, args.commit, results)
    with open(args.history, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2, sort_keys=True)
        handle.write("\n")

    markdown = render_markdown(history)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(markdown)
    # Surface the dashboard on the workflow-run summary page, where a
    # reviewer actually looks — the artifact is the archive, this is the view.
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(markdown)
            handle.write("\n")
    print(markdown)

    if len(history["entries"]) < 2:
        print(
            "first recorded run: no baseline yet, regression gate skipped "
            "(the gate engages once a second commit lands in the history)"
        )
        return 0

    regressions = find_regressions(history, args.fail_threshold)
    for label, prev, cur, drop in regressions:
        print(
            f"REGRESSION {label}: {prev:,.0f} -> {cur:,.0f} Kcycle/s "
            f"(-{drop:.0%}, threshold {args.fail_threshold:.0%})",
            file=sys.stderr,
        )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
