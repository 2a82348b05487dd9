"""SystemC-like discrete-event simulation kernel.

This subpackage is the substrate the paper's SystemC 2.0 models run on:
modules, ports, signals with delta-cycle semantics, thread and method
processes, events, a clock generator, tracing and a high-level
:class:`~repro.sim.simulator.Simulator` facade.
"""

from repro.sim.clock import Clock
from repro.sim.event import Event
from repro.sim.kernel import Kernel, KernelStatistics
from repro.sim.module import Module
from repro.sim.port import InOutPort, InPort, OutPort, Port
from repro.sim.process import AllOf, AnyOf, MethodProcess, Process, ThreadProcess
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
    "AllOf",
    "AnyOf",
    "Clock",
    "Event",
    "InOutPort",
    "InPort",
    "Kernel",
    "KernelStatistics",
    "MethodProcess",
    "Module",
    "OutPort",
    "Port",
    "Process",
    "SimTime",
    "SimulationReport",
    "Simulator",
    "Signal",
    "ThreadProcess",
    "TimeUnit",
    "TraceRecorder",
    "ZERO_TIME",
    "fs",
    "ms",
    "ns",
    "ps",
    "sec",
    "us",
]
