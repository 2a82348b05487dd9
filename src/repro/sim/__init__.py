"""SystemC-like discrete-event simulation kernel.

This subpackage is the substrate the paper's SystemC 2.0 models run on:
modules, signals with delta-cycle semantics, thread and method processes,
events, a clock value (period and edge schedule), tracing and a high-level
:class:`~repro.sim.simulator.Simulator` facade.  It holds only what the
PSM, LEM, GEM, battery, thermal and bus models use: there are no ports, no
elaboration step and no clock signal.
"""

from repro.sim.clock import Clock
from repro.sim.event import Event
from repro.sim.kernel import Kernel, KernelStatistics
from repro.sim.module import Module
from repro.sim.process import YIELD, AnyOf, MethodProcess, Process, ThreadProcess
from repro.sim.signal import Signal
from repro.sim.simtime import (
    SimTime,
    TimeUnit,
    ZERO_TIME,
    fs,
    ms,
    ns,
    ps,
    sec,
    us,
)
from repro.sim.simulator import SimulationReport, Simulator
from repro.sim.trace import TraceRecorder

__all__ = [
    "AnyOf",
    "Clock",
    "Event",
    "Kernel",
    "KernelStatistics",
    "MethodProcess",
    "Module",
    "Process",
    "SimTime",
    "SimulationReport",
    "Simulator",
    "Signal",
    "ThreadProcess",
    "TimeUnit",
    "TraceRecorder",
    "YIELD",
    "ZERO_TIME",
    "fs",
    "ms",
    "ns",
    "ps",
    "sec",
    "us",
]
