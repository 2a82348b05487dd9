"""Differential oracles: one platform, every execution path, agreement checks.

The reproduction exposes two independent execution axes — bus timing
(event-driven vs cycle-accurate) and DPM policy (paper vs always-on vs
greedy) — that must agree up to documented bounds, plus invariants a single
run and the static analysis must satisfy.  :func:`run_differential` runs a
single :class:`~repro.platform.spec.PlatformSpec` through all of them and
returns one :class:`OracleVerdict` per oracle:

``bus_timing``
    Event-driven vs cycle-accurate bus under an always-on setup (isolating
    arbitration from DPM decision cascades): identical task counts and
    transfer counts, every completion within the accumulated grant-alignment
    bound of one bus period per grant.  Skipped on bus-less platforms.
``policy``
    Paper policy vs always-on baseline and greedy-sleep: whenever the
    baseline drains the workload within the budget, so must the DPM runs
    (no deadline regression; GEM-enabled platforms may legitimately park
    low-priority IPs and report ``skip``), and the paper policy's energy
    deficit against the baseline never exceeds the transition energy it
    invested (mispredicted sleeps waste their overhead, never more).
``structural``
    Single-run invariants: battery state-of-charge monotone non-increasing
    while discharging, per-IP PSM residency sums to the simulated time
    (plus at most the completed transition latencies, which the PSM books
    against the source state *on top of* the elapsed-time integration),
    bus grants matched by releases, and well-ordered execution records.
``lint_reach``
    Static analysis agrees with dynamics: the spec is linted with the
    trajectory envelope attached (``lint_spec(reach=True)``, findings are
    advisory for generated platforms), every ``lem.decision`` context of
    a traced run lies inside the reachability envelope
    (:func:`repro.lint.reach.compute_reach`), and rules the analysis
    declared statically shadowed or trajectory-dead never fire.  An
    escape is an unsoundness in the abstract interpretation; a dead rule
    firing is a lint false positive — either way a generated platform
    just disproved a static claim.

Oracles that cannot apply (no bus, baseline exhausted its budget) report
``skip`` with a reason rather than vanishing silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dpm.controller import DpmSetup
from repro.errors import ExperimentError, ReproError
from repro.experiments.runner import RunArtifacts, run_scenario
from repro.platform.serialize import spec_hash
from repro.platform.spec import PlatformSpec
from repro.power.states import PowerState

__all__ = [
    "ALL_ORACLES",
    "DifferentialResult",
    "OracleVerdict",
    "POLICY_SAVING_SLACK",
    "run_differential",
]

#: Float-noise slack (relative to the baseline energy) on the policy
#: oracle's deficit bound: the paper policy may exceed the always-on
#: baseline's energy by at most its own transition overhead plus this.
POLICY_SAVING_SLACK = 1e-9

ALL_ORACLES = (
    "bus_timing",
    "policy",
    "structural",
    "lint_reach",
)


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one oracle on one platform."""

    oracle: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def as_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "status": self.status, "detail": self.detail}


@dataclass
class DifferentialResult:
    """All oracle verdicts for one platform spec."""

    spec_name: str
    spec_hash: str
    verdicts: List[OracleVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no oracle failed (skips do not count against the spec)."""
        return not self.failures

    @property
    def failures(self) -> List[OracleVerdict]:
        return [verdict for verdict in self.verdicts if verdict.failed]

    def verdict(self, oracle: str) -> Optional[OracleVerdict]:
        for verdict in self.verdicts:
            if verdict.oracle == oracle:
                return verdict
        return None

    def summary(self) -> str:
        """One line per oracle, prefixed by the overall outcome."""
        head = "ok" if self.ok else "FAIL"
        lines = [f"{head} {self.spec_name} [{self.spec_hash[:12]}]"]
        for verdict in self.verdicts:
            mark = {"pass": "+", "fail": "!", "skip": "~"}[verdict.status]
            line = f"  {mark} {verdict.oracle:<14} {verdict.status}"
            if verdict.detail:
                line += f": {verdict.detail}"
            lines.append(line)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "spec_name": self.spec_name,
            "spec_hash": self.spec_hash,
            "ok": self.ok,
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
        }


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def _execution_key(execution) -> tuple:
    return (execution.ip_name, execution.task.name)


def _spec_with_bus_timing(spec: PlatformSpec, timing: str) -> PlatformSpec:
    data = spec.to_dict()
    bus = dict(data.get("bus", {}))
    bus["timing"] = timing
    data["bus"] = bus
    return PlatformSpec.from_dict(data)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def _oracle_bus_timing(spec: PlatformSpec) -> OracleVerdict:
    if spec.bus is None or not spec.bus.enabled:
        return OracleVerdict("bus_timing", "skip", "platform has no bus")
    if not any(ip.bus_words_per_task for ip in spec.ips):
        return OracleVerdict("bus_timing", "skip", "no IP produces bus traffic")
    runs = {}
    for timing in ("event_driven", "cycle_accurate"):
        # Always-on isolates bus arbitration from DPM decision cascades: a
        # one-period grant shift must not flip a sleep decision and snowball.
        runs[timing] = run_scenario(
            _spec_with_bus_timing(spec, timing),
            DpmSetup.always_on(),
            trace=False,
        )
    ed, ca = runs["event_driven"], runs["cycle_accurate"]
    problems: List[str] = []
    if ed.all_tasks_completed != ca.all_tasks_completed:
        problems.append(
            f"completion flag differs: ED {ed.all_tasks_completed} vs CA "
            f"{ca.all_tasks_completed}"
        )
    if len(ed.executions) != len(ca.executions):
        problems.append(f"task count ED {len(ed.executions)} vs CA {len(ca.executions)}")
    ed_stats, ca_stats = ed.soc.bus.stats, ca.soc.bus.stats
    if ed_stats.transfer_count != ca_stats.transfer_count:
        problems.append(
            f"transfer count ED {ed_stats.transfer_count} vs CA {ca_stats.transfer_count}"
        )
    if ed_stats.words_transferred != ca_stats.words_transferred:
        problems.append(
            f"words transferred ED {ed_stats.words_transferred} vs CA "
            f"{ca_stats.words_transferred}"
        )
    bus_masters = [ip for ip in spec.ips if ip.bus_words_per_task]
    if not problems and len(bus_masters) == 1:
        # With a single bus master there is no contention to reorder: each
        # CA grant lands on the next posedge, at most one bus period after
        # its ED counterpart, plus up to one period of ceil-quantised
        # duration — and the shifts accumulate across the dependent
        # transfer chain, so the i-th completion may skew by up to
        # 2 * (i + 1) bus periods but no more.  (Under contention the CA
        # posedge batch can legitimately arbitrate simultaneous requests in
        # a different order than ED's arrival order, shifting completions
        # by whole transfer durations; the count/word equalities above are
        # the multi-master contract, timing is pinned by the fixed cases in
        # tests/soc/test_bus_service.py.)
        period_fs = int(ca.soc.bus.clock.period)
        for index, (ed_run, ca_run) in enumerate(zip(ed.executions, ca.executions)):
            if _execution_key(ed_run) != _execution_key(ca_run):
                problems.append(
                    f"execution order differs at #{index}: {_execution_key(ed_run)} "
                    f"vs {_execution_key(ca_run)}"
                )
                break
            skew = abs(int(ca_run.completion_time) - int(ed_run.completion_time))
            bound = 2 * (index + 1) * period_fs
            if skew > bound:
                problems.append(
                    f"{ca_run.ip_name}/{ca_run.task.name} completion skew "
                    f"{skew} fs > {2 * (index + 1)} bus period(s) ({bound} fs)"
                )
    if problems:
        return OracleVerdict("bus_timing", "fail", "; ".join(problems))
    return OracleVerdict("bus_timing", "pass")


def _oracle_policy(spec: PlatformSpec) -> OracleVerdict:
    runs: Dict[str, RunArtifacts] = {}
    for name, setup in (
        ("paper", DpmSetup.paper()),
        ("always-on", DpmSetup.always_on()),
        ("greedy-sleep", DpmSetup.greedy_sleep()),
    ):
        runs[name] = run_scenario(spec, setup, trace=False)
    baseline = runs["always-on"]
    if not baseline.all_tasks_completed:
        return OracleVerdict(
            "policy", "skip", "always-on baseline exhausted the time budget"
        )
    problems: List[str] = []
    for name in ("paper", "greedy-sleep"):
        if not runs[name].all_tasks_completed:
            if spec.gem.enabled:
                # The GEM legitimately parks low-priority IPs under stressed
                # battery/thermal rules — deliberate deadline sacrifice, not
                # a policy bug (the always-on baseline runs without a GEM).
                return OracleVerdict(
                    "policy",
                    "skip",
                    f"{name} missed the budget with the GEM enabled "
                    "(rules may park low-priority IPs by design)",
                )
            problems.append(
                f"{name} missed the budget the always-on baseline met "
                "(deadline regression)"
            )
    if not problems:
        # "Energy saving never negative" holds asymptotically, but a tiny
        # workload gives the predictor no amortisation window: a mispredicted
        # sleep can cost more than it saves.  What the policy can *never* do
        # is lose more than the transition energy it invested — sleep and
        # DVFS residency always save power against the always-on baseline,
        # only the transition overheads are at risk.  That overhead is the
        # documented bound on the deficit.
        paper = runs["paper"]
        overhead_j = 0.0
        for instance in paper.soc.instances:
            psm = instance.psm
            for label, count in psm.transition_counts.items():
                source, _, target = label.partition("->")
                overhead_j += count * psm.transitions.energy_j(
                    PowerState(source), PowerState(target)
                )
        deficit = paper.total_energy_j - baseline.total_energy_j
        slack = POLICY_SAVING_SLACK * baseline.total_energy_j
        if deficit > overhead_j + slack:
            saving = 1.0 - paper.total_energy_j / baseline.total_energy_j
            problems.append(
                f"paper policy wastes energy beyond its transition overhead: "
                f"saving {saving:.3e}, deficit {deficit:.3e} J > "
                f"transition overhead {overhead_j:.3e} J "
                f"(paper {paper.total_energy_j!r} J, "
                f"always-on {baseline.total_energy_j!r} J)"
            )
    if problems:
        return OracleVerdict("policy", "fail", "; ".join(problems))
    return OracleVerdict("policy", "pass")


def _oracle_structural(spec: PlatformSpec) -> OracleVerdict:
    # setup=None honours the spec's own policy (defaulting to the paper DPM).
    base = run_scenario(spec, None, trace=False)
    problems: List[str] = []
    soc = base.soc
    # Battery: state-of-charge must never rise while discharging.
    if not soc.battery.config.on_ac_power:
        history = soc.battery_monitor.history
        for (t_prev, soc_prev), (t_next, soc_next) in zip(history, history[1:]):
            if soc_next > soc_prev + 1e-15:
                problems.append(
                    f"battery SoC rose while discharging: {soc_prev!r} -> "
                    f"{soc_next!r} at {t_next!r}"
                )
                break
    # PSM residency: the integrated state times cover the whole run.  The
    # PSM books each completed transition's latency against the source state
    # *in addition to* the elapsed-time integration (pinned golden
    # behaviour), so the sum may exceed the end time by exactly that much.
    for instance in soc.instances:
        psm = instance.psm
        total_fs = sum(int(value) for value in psm.residency().values())
        slack_fs = 0
        for label, count in psm.transition_counts.items():
            source, _, target = label.partition("->")
            latency = psm.transitions.latency(PowerState(source), PowerState(target))
            slack_fs += count * int(latency)
        end_fs = int(base.end_time)
        if not (end_fs <= total_fs <= end_fs + slack_fs):
            problems.append(
                f"{instance.spec.name}: residency sum {total_fs} fs outside "
                f"[{end_fs}, {end_fs + slack_fs}] fs"
            )
    # Bus: every grant must be matched by a release (transfer or cancel).
    if soc.bus is not None:
        stats = soc.bus.stats
        if stats.grant_count != stats.transfer_count + stats.cancelled_count:
            problems.append(
                f"unbalanced bus grants: {stats.grant_count} grants vs "
                f"{stats.transfer_count} transfers + {stats.cancelled_count} cancelled"
            )
    # Executions: request <= grant <= completion <= end of run.
    end_fs = int(base.end_time)
    for execution in base.executions:
        if not (
            int(execution.request_time)
            <= int(execution.grant_time)
            <= int(execution.completion_time)
            <= end_fs
        ):
            problems.append(
                f"{execution.ip_name}/{execution.task.name} has disordered "
                f"times: request {execution.request_time!r}, grant "
                f"{execution.grant_time!r}, completion {execution.completion_time!r}"
            )
            break
    if problems:
        return OracleVerdict("structural", "fail", "; ".join(problems))
    return OracleVerdict("structural", "pass")


def _oracle_lint_reach(spec: PlatformSpec) -> OracleVerdict:
    """Static lint (with the trajectory envelope) vs one traced run."""
    import tempfile
    from pathlib import Path

    from repro.experiments.lint_crosscheck import decision_contexts
    from repro.lint import build_model, lint_spec, spec_rule_table
    from repro.lint.reach import compute_reach
    from repro.obs.session import TraceRequest

    # Lint findings on a *generated* spec are advisory (the generator is
    # free to produce saturated buses or hopeless break-evens; the corpus
    # sidecar records them at save time).  What the oracle enforces is the
    # *agreement* between the static claims and a traced run: containment
    # in the reachable envelope and silence of statically-dead rules.
    report = lint_spec(spec, reach=True)
    reach = compute_reach(build_model(spec))
    table = spec_rule_table(spec)
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "lint_reach_trace.jsonl"
        request = TraceRequest(
            format="jsonl", path=str(trace_path), events=("lem.decision",)
        )
        artifacts = run_scenario(spec, None, trace=request)
        contexts = decision_contexts(artifacts.trace_path or trace_path)
    problems: List[str] = []
    escapes = [c for c in contexts if not reach.is_reachable(c)]
    for context in escapes[:3]:
        problems.append(
            f"observed context escapes the reachable envelope: "
            f"{context.describe()}"
        )
    if len(escapes) > 3:
        problems.append(f"... and {len(escapes) - 3} more escape(s)")
    if table is not None and contexts:
        fired: Dict[int, int] = {}
        for context in contexts:
            index = table.first_match_index(context)
            if index is not None:
                fired[index] = fired.get(index, 0) + 1
        live = reach.live_rule_indices(table)
        for index in sorted(fired):
            if index in set(table.unreachable_rules()):
                problems.append(
                    f"statically shadowed rule {index} "
                    f"({table.rules[index].describe()}) won "
                    f"{fired[index]} decision(s)"
                )
            elif index not in live:
                problems.append(
                    f"trajectory-dead rule {index} "
                    f"({table.rules[index].describe()}) won "
                    f"{fired[index]} decision(s)"
                )
    if problems:
        return OracleVerdict("lint_reach", "fail", "; ".join(problems))
    detail = (
        f"{len(contexts)} decision(s) contained"
        if contexts else "no rule decisions traced; envelope vacuously sound"
    )
    if report.errors:
        detail += f" ({len(report.errors)} advisory lint error(s) on the spec)"
    return OracleVerdict("lint_reach", "pass", detail)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_differential(
    spec: PlatformSpec,
    oracles: Optional[Sequence[str]] = None,
) -> DifferentialResult:
    """Run ``spec`` through every differential oracle and collect verdicts.

    ``oracles`` restricts the set (names from :data:`ALL_ORACLES`).
    Simulator crashes inside an oracle are reported as
    failures of that oracle, not raised — a generated platform that blows
    up one execution path is exactly what the fuzzer is looking for.
    """
    selected = list(oracles) if oracles is not None else list(ALL_ORACLES)
    unknown = [name for name in selected if name not in ALL_ORACLES]
    if unknown:
        raise ExperimentError(
            f"unknown oracle(s) {unknown!r}; expected names from {ALL_ORACLES!r}"
        )
    result = DifferentialResult(spec_name=spec.name, spec_hash=spec_hash(spec))
    for name in ALL_ORACLES:
        if name not in selected:
            continue
        try:
            if name == "bus_timing":
                verdict = _oracle_bus_timing(spec)
            elif name == "policy":
                verdict = _oracle_policy(spec)
            elif name == "lint_reach":
                verdict = _oracle_lint_reach(spec)
            else:
                verdict = _oracle_structural(spec)
        except ReproError as error:
            verdict = OracleVerdict(name, "fail", f"oracle crashed: {error}")
        result.verdicts.append(verdict)
    return result
