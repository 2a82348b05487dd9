"""Trace requests, SoC instrumentation and the per-run trace session.

This is the glue between the tracing primitives (:mod:`repro.obs.tracer`,
:mod:`repro.obs.sinks`) and the rest of the library:

* :class:`TraceRequest` — a validated "trace this run" descriptor built
  from CLI flags, a spec's ``TraceDef`` section, or Python code;
* :func:`instrument` — attaches a :class:`~repro.obs.tracer.Tracer` to a
  built :class:`~repro.soc.soc.SoC` by setting the ``_tracer`` hook
  attribute on every instrumented component (never by observing
  signals), so an untraced run pays one attribute test per hook site;
* :class:`TraceSession` — the run-scoped lifecycle: attach before the
  simulation starts, ``finish`` afterwards to write the sink file.

The ``vcd`` format is signal-level rather than event-level: it watches
the PSM state signals (plus the bus busy signal) with the simulator's
:class:`~repro.sim.trace.TraceRecorder` and dumps a VCD at the end.
Watching attaches real signal observers; they only record the values
they see, so a VCD-traced run stays bit-identical to an untraced one.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

from repro.obs.events import ObsError, expand_event_filter
from repro.obs.sinks import TRACE_EXTENSIONS, write_jsonl, write_perfetto
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.platform.spec import TraceDef
    from repro.sim.simtime import SimTime
    from repro.soc.soc import SoC

__all__ = ["TRACE_FORMATS", "TraceRequest", "TraceSession", "instrument"]

#: Accepted trace formats, in CLI/choice order.
TRACE_FORMATS = ("jsonl", "perfetto", "vcd")


@dataclass(frozen=True)
class TraceRequest:
    """A validated request to trace one simulation run."""

    format: str = "jsonl"
    path: Optional[str] = None
    events: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.format not in TRACE_FORMATS:
            raise ObsError(
                f"unknown trace format {self.format!r}; expected one of "
                f"{', '.join(TRACE_FORMATS)}"
            )
        # Fail fast on unknown kinds/categories instead of at attach time.
        expand_event_filter(self.events)
        if self.events and self.format == "vcd":
            raise ObsError("event filters only apply to jsonl/perfetto traces")

    @classmethod
    def from_trace_def(cls, trace_def: Optional["TraceDef"]) -> Optional["TraceRequest"]:
        """Build a request from a spec's ``TraceDef`` (None when disabled)."""
        if trace_def is None or not trace_def.enabled:
            return None
        return cls(
            format=trace_def.format,
            path=trace_def.path or None,
            events=tuple(trace_def.events) or None,
        )

    def resolve_path(self, stem: str) -> Path:
        """The output file: the explicit path, or ``<stem>_trace.<ext>``."""
        if self.path:
            return Path(self.path)
        return Path(f"{stem}_trace.{TRACE_EXTENSIONS[self.format]}")


def instrument(soc: "SoC", tracer: Tracer) -> None:
    """Point every instrumented component of a built SoC at ``tracer``.

    Emits one ``sim.backend`` event recording the kernel backend (always
    ``python``) and interpreter version of the trace, one ``psm.state``
    event per IP so sinks know the initial state, and seeds the SoC's
    level-change trackers with the current battery and thermal levels.
    """
    now_fs = soc.kernel.now_fs
    soc._tracer = tracer
    soc._traced_battery_level = soc.battery.level
    soc._traced_thermal_level = soc.thermal.level
    tracer.emit(now_fs, "sim.backend", soc.name, backend="python",
                python=platform.python_version())
    for instance in soc.instances:
        ip_name = instance.spec.name
        instance.ip._tracer = tracer
        instance.psm._tracer = tracer
        instance.psm._trace_name = ip_name
        instance.lem._tracer = tracer
        tracer.emit(now_fs, "psm.state", ip_name, state=str(instance.psm.state))
    if soc.gem is not None:
        soc.gem._tracer = tracer
    if soc.bus is not None:
        soc.bus._tracer = tracer


class TraceSession:
    """One run's tracing lifecycle: attach, simulate, finish.

    ``stem`` names the default output file (usually the scenario name);
    an explicit ``request.path`` wins.
    """

    def __init__(self, request: TraceRequest, stem: str) -> None:
        self.request = request
        self.path = request.resolve_path(stem)
        self.tracer: Optional[Tracer] = (
            Tracer(request.events) if request.format != "vcd" else None
        )
        self._soc: Optional["SoC"] = None

    def attach(self, soc: "SoC") -> None:
        """Hook the (already built, not yet run) SoC up for tracing."""
        self._soc = soc
        if self.tracer is not None:
            instrument(soc, self.tracer)
            return
        # VCD: record the waveforms observability cares about — every PSM
        # state signal plus the bus busy line when a bus exists.
        for instance in soc.instances:
            soc.simulator.watch(instance.psm.state_signal)
        if soc.bus is not None:
            soc.simulator.watch(soc.bus.busy_signal)

    def finish(self, end_time: Optional["SimTime"] = None) -> Path:
        """Write the trace file and detach; returns the output path."""
        if self._soc is None:
            raise ObsError("TraceSession.finish called before attach")
        fmt = self.request.format
        if fmt == "jsonl":
            write_jsonl(self.tracer.events, self.path)
        elif fmt == "perfetto":
            write_perfetto(self.tracer.events, self.path,
                           process_name=self._soc.name)
        else:
            recorder = self._soc.simulator.trace
            recorder.write_vcd(self.path, end_time=end_time)
            recorder.close()
        return self.path
