"""High-level simulator facade.

The :class:`Simulator` owns a :class:`~repro.sim.kernel.Kernel`, the
top-level modules and an optional :class:`~repro.sim.trace.TraceRecorder`.
It takes care of the boring but important lifecycle steps:

1. construct modules (user code),
2. :meth:`elaborate` — resolve every port in the hierarchy and run the
   ``end_of_elaboration`` hooks,
3. :meth:`run` for a duration (repeatable),
4. collect kernel statistics and wall-clock throughput
   (:class:`SimulationReport`), which is what the simulation-speed figure in
   the paper is reproduced from.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ElaborationError
from repro.sim.kernel import Kernel
from repro.sim.module import Module
from repro.sim.simtime import SimTime, ZERO_TIME
from repro.sim.trace import TraceRecorder

__all__ = ["Simulator", "SimulationReport"]


@dataclass
class SimulationReport:
    """Summary of one :meth:`Simulator.run` call."""

    simulated_time: SimTime = ZERO_TIME
    wall_clock_seconds: float = 0.0
    kernel_stats: Dict[str, int] = field(default_factory=dict)
    cycles_simulated: float = 0.0

    @property
    def kilocycles_per_second(self) -> float:
        """Simulation speed in kilo clock-cycles per wall-clock second."""
        if self.wall_clock_seconds <= 0.0 or self.cycles_simulated <= 0.0:
            return 0.0
        return self.cycles_simulated / self.wall_clock_seconds / 1e3

    def as_dict(self) -> dict:
        """Plain-dictionary view, convenient for report rendering."""
        return {
            "simulated_time_s": self.simulated_time.seconds,
            "wall_clock_s": self.wall_clock_seconds,
            "cycles_simulated": self.cycles_simulated,
            "kilocycles_per_second": self.kilocycles_per_second,
            **self.kernel_stats,
        }


class Simulator:
    """Owns the kernel, the module hierarchy and the trace recorder."""

    def __init__(self, name: str = "sim", trace: bool = False) -> None:
        self.name = name
        self.kernel = Kernel()
        self._top_modules: List[Module] = []
        self.trace: Optional[TraceRecorder] = TraceRecorder() if trace else None
        self._elaborated = False
        self._last_report = SimulationReport()

    # -- construction ------------------------------------------------------
    def add_module(self, module: Module) -> Module:
        """Register a top-level module (one without a parent)."""
        if module.parent is not None:
            raise ElaborationError(
                f"module {module.name!r} has a parent and cannot be a top-level module"
            )
        if any(existing.basename == module.basename for existing in self._top_modules):
            raise ElaborationError(f"duplicate top-level module name {module.basename!r}")
        self._top_modules.append(module)
        return module

    @property
    def top_modules(self) -> Sequence[Module]:
        """Registered top-level modules."""
        return list(self._top_modules)

    def find(self, path: str) -> Module:
        """Find a module anywhere in the design by dot-separated path."""
        head, _, rest = path.partition(".")
        for module in self._top_modules:
            if module.basename == head:
                return module.find(rest) if rest else module
        raise ElaborationError(f"no top-level module named {head!r}")

    # -- lifecycle ------------------------------------------------------------
    def elaborate(self) -> None:
        """Resolve every port in the hierarchy; idempotent.

        A simulator without modules is allowed: models built from bare kernel
        processes (no structural hierarchy) simply have nothing to elaborate.
        """
        if self._elaborated:
            return
        for top in self._top_modules:
            for module in top.walk():
                module.elaborate()
        self._elaborated = True

    def run(self, duration: Optional[SimTime] = None, clock_period: Optional[SimTime] = None) -> SimulationReport:
        """Elaborate if needed, run the kernel and return a report.

        Parameters
        ----------
        duration:
            Maximum additional simulated time; ``None`` runs to quiescence.
        clock_period:
            Reference clock period used to convert simulated time into
            "cycles" for throughput reporting.  When omitted, the report's
            cycle-based fields are zero.
        """
        self.elaborate()
        start_time = self.kernel.now
        wall_start = _wallclock.perf_counter()  # repro-lint: allow[DET-WALLCLOCK]
        end_sim_time = self.kernel.run(duration)
        wall_elapsed = _wallclock.perf_counter() - wall_start  # repro-lint: allow[DET-WALLCLOCK]
        simulated = end_sim_time - start_time
        cycles = 0.0
        if clock_period is not None and not clock_period.is_zero:
            cycles = simulated / clock_period
        self._last_report = SimulationReport(
            simulated_time=simulated,
            wall_clock_seconds=wall_elapsed,
            kernel_stats=self.kernel.stats.as_dict(),
            cycles_simulated=cycles,
        )
        return self._last_report

    def stop(self) -> None:
        """Request the kernel to stop."""
        self.kernel.stop()

    # -- results -----------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulated time."""
        return self.kernel.now

    @property
    def last_report(self) -> SimulationReport:
        """Report of the most recent :meth:`run` call."""
        return self._last_report

    def design_tree(self) -> str:
        """Printable tree of the whole design."""
        return "\n".join(module.design_tree() for module in self._top_modules)

    def watch(self, *signals) -> None:
        """Trace the given signals (enables tracing if it was off)."""
        if self.trace is None:
            self.trace = TraceRecorder()
        for signal in signals:
            self.trace.watch(signal)
