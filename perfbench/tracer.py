"""Spans and counts at each layer boundary, for the traced run only.

:func:`install` wraps public functions and methods of every layer in place
(the benchmark's own files, nothing under ``src/``).  A wrapped call records
a span: name, start, end and the span that was open when it began.  Spans
stay in memory in flat arrays and are written out at exit; a layer's self
time is its spans' duration minus the part covered by their child spans.

Campaign jobs run in forked pool workers.  A worker starts with an empty
buffer, and each job record carries the worker's spans and counts back to
the parent, which folds them in as the record reaches ``ResultStore.put``
and removes them before the record is stored, so stored records are
unchanged.

Only the traced run imports this module; the untraced run has no wrapper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: record key carrying a worker's spans back to the parent
SHIPPED = "_perfbench_trace"

#: (module, attribute path, span name); a span's calls are counted too
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.soc.soc", "SoC.run_until_done", "sim.run"),
    ("repro.power.psm", "PowerStateMachine.request_state", "power.psm_request"),
    ("repro.dpm.lem", "LocalEnergyManager.submit_task_request", "dpm.lem_request"),
    ("repro.dpm.gem", "GlobalEnergyManager.evaluate", "dpm.gem_evaluate"),
    ("repro.dpm.rules", "RuleTable.select", "dpm.rule_select"),
    ("repro.battery.model", "Battery.draw_energy", "battery.draw"),
    ("repro.battery.model", "Battery.drain_windows", "battery.draw"),
    ("repro.thermal.model", "ThermalModel.step", "thermal.step"),
    ("repro.thermal.model", "ThermalModel.advance_windows", "thermal.step"),
    ("repro.soc.bus", "Bus.request", "bus.request"),
    ("repro.soc.bus", "Bus.complete", "bus.complete"),
    ("repro.platform.build", "to_scenario", "platform.build"),
    ("repro.campaign.spec", "build_scenario", "platform.build"),
    ("repro.platform.spec", "PlatformSpec.from_dict", "platform.build"),
    ("repro.soc.soc", "build_soc", "soc.build"),
    ("repro.campaign.executor", "preflight_campaign", "campaign.preflight"),
    ("repro.campaign.executor", "run_campaign", "campaign.run"),
    ("repro.lint.engine", "lint_spec", "lint.lint_spec"),
    ("repro.lint.reach", "compute_reach", "lint.reach"),
    ("repro.analysis.metrics", "compare_runs", "analysis.compare"),
)

#: calls that are only counted: their time stays with the enclosing span
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.dpm.lem", "LocalEnergyManager.notify_task_complete", "dpm.lem_completions"),
    ("repro.battery.monitor", "BatteryMonitor.sample_now", "battery.samples"),
    ("repro.thermal.sensor", "TemperatureSensor.sample_now", "thermal.samples"),
    ("repro.experiments.runner", "run_scenario", "experiments.scenario_runs"),
    ("repro.experiments.runner", "run_baseline", "experiments.baseline_runs"),
)


class Tracer:
    """In-memory span buffer plus named counts for one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.owner_pid = os.getpid()
        self.clear()
        # A forked pool worker starts empty: the parent's spans stay with it.
        os.register_at_fork(after_in_child=self.clear)

    def clear(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self.stack.pop()

    # -- moving a worker's spans to the parent --------------------------
    def ship(self) -> dict:
        """Hand over this process's spans and counts, leaving it empty."""
        payload = {
            "name": self.span_name.tobytes(),
            "parent": self.span_parent.tobytes(),
            "start": self.span_start.tobytes(),
            "end": self.span_end.tobytes(),
            "counts": dict(self.counts),
        }
        self.clear()
        return payload

    def merge(self, payload: dict) -> None:
        offset = len(self.span_start)
        parents = array("i")
        parents.frombytes(payload["parent"])
        self.span_name.frombytes(payload["name"])
        self.span_parent.extend(parent + offset if parent >= 0 else -1 for parent in parents)
        self.span_start.frombytes(payload["start"])
        self.span_end.frombytes(payload["end"])
        self.counts.update(payload["counts"])

    # -- results --------------------------------------------------------
    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (number of spans, total self time in seconds)."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = array("d", bytes(8 * len(starts)))
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for index, name_id in enumerate(self.span_name):
            entry = totals[self.names[name_id]]
            entry[0] += 1
            entry[1] += ends[index] - starts[index] - covered[index]
        return {name: (int(count), seconds) for name, (count, seconds) in totals.items()}

    def write(self, path: Path) -> None:
        """Write every span as ``index parent name start end`` lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tparent\tname\tstart_s\tend_s\n")
            for index, name_id in enumerate(self.span_name):
                handle.write(
                    f"{index}\t{self.span_parent[index]}\t{self.names[name_id]}\t"
                    f"{self.span_start[index]!r}\t{self.span_end[index]!r}\n"
                )


def _span_wrapper(tracer: Tracer, name: str, func: Callable) -> Callable:
    name_id = tracer.intern(name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        index = tracer.open(name_id)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return func(*args, **kwargs)

    return wrapper


def _after_run(tracer: Tracer, func: Callable) -> Callable:
    """``SoC.run_until_done``: add the run's kernel, PSM and bus statistics."""

    @functools.wraps(func)
    def wrapper(soc, *args, **kwargs):
        end_time = func(soc, *args, **kwargs)
        counts = tracer.counts
        stats = soc.simulator.kernel.stats
        counts["sim.activations"] += stats.process_activations
        counts["sim.delta_cycles"] += stats.delta_cycles
        counts["sim.timed_notifications"] += stats.timed_notifications
        counts["sim.time_advances"] += stats.time_advances
        counts["power.psm_transitions"] += sum(psm.transition_count for psm in soc.psms)
        bus = soc.bus
        if bus is not None:
            counts["bus.transfers"] += bus.stats.transfer_count
            counts["bus.grants"] += bus.stats.grant_count
            counts["bus.wait_fs"] += bus.stats.total_wait_time.femtoseconds
            counts["bus.busy_fs"] += bus.stats.busy_time.femtoseconds
            counts["bus.elapsed_fs"] += end_time.femtoseconds
        return end_time

    return wrapper


def _shipping(tracer: Tracer, func: Callable) -> Callable:
    """Campaign job/baseline runners: attach a worker's spans to its record."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        record = func(*args, **kwargs)
        if os.getpid() != tracer.owner_pid:
            record[SHIPPED] = tracer.ship()
        return record

    return wrapper


def _unshipping(tracer: Tracer, func: Callable, record_position: int) -> Callable:
    """``ResultStore.put``/``put_baseline``: fold shipped spans back in first."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        payload = args[record_position].pop(SHIPPED, None)
        if payload is not None:
            tracer.merge(payload)
        return func(*args, **kwargs)

    return wrapper


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, static descriptor) of a target."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, inspect.getattr_static(owner, attribute)


class Installation:
    """The patched attributes, so :meth:`uninstall` can put them back."""

    def __init__(self) -> None:
        self.patched: List[Tuple[object, str, object]] = []

    def replace(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner, attribute, static = _resolve(module_name, path)
        if isinstance(static, (classmethod, staticmethod)):
            replacement = type(static)(make(static.__func__))
            self._set(owner, attribute, replacement)
            return
        replacement = make(static)
        self._set(owner, attribute, replacement)
        if inspect.ismodule(owner):
            # ``from module import name`` bound the original elsewhere too.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is None or module is owner:
                    continue
                for name, value in list(namespace.items()):
                    if value is static:
                        self._set(module, name, replacement)

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self.patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        self.patched.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary of :data:`SPANS` and :data:`COUNTS`."""
    done = Installation()
    for module_name, path, name in SPANS:
        if path == "SoC.run_until_done":
            done.replace(module_name, path,
                         lambda func, name=name: _span_wrapper(tracer, name, _after_run(tracer, func)))
        else:
            done.replace(module_name, path,
                         lambda func, name=name: _span_wrapper(tracer, name, func))
    for module_name, path, name in COUNTS:
        done.replace(module_name, path, lambda func, name=name: _count_wrapper(tracer, name, func))
    for path in ("execute_job", "execute_baseline"):
        done.replace("repro.campaign.executor", path, lambda func: _shipping(tracer, func))
    for path, record_position in (("ResultStore.put", 1), ("ResultStore.put_baseline", 2)):
        done.replace(
            "repro.campaign.store", path,
            lambda func, position=record_position: _unshipping(
                tracer, _span_wrapper(tracer, "campaign.store_put", func), position),
        )
    return done
