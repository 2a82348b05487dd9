"""Processes: the concurrent units of behaviour in the simulation kernel.

Two kinds of processes exist, mirroring SystemC:

* **Thread processes** (:class:`ThreadProcess`) wrap a generator function.
  The generator ``yield``\\ s *wait specifications* and is resumed by the
  kernel when the wait matures.  Valid wait specifications are:

  - a :class:`~repro.sim.simtime.SimTime` duration,
  - an :class:`~repro.sim.event.Event`,
  - an :class:`AnyOf` combinator over events (resume on the first),
  - :data:`YIELD` (resume later in the same evaluate phase, behind every
    process that is runnable now),
  - ``None`` (wait on the process' static sensitivity, if any).

* **Method processes** (:class:`MethodProcess`) wrap a plain callable that is
  re-invoked from scratch every time an event in its static sensitivity list
  is notified.  Method processes never suspend, and never run at
  initialisation: the first call waits for the first notification.

The dominant wait in this library is ``yield SimTime`` (a pure timed wait):
the kernel's one stepping routine (:meth:`repro.sim.kernel.Kernel._step`)
special-cases it, so a timed resume touches no waiter lists and no
cancellation.

Users normally do not instantiate these classes directly; they call
:meth:`repro.sim.module.Module.add_thread` and
:meth:`repro.sim.module.Module.add_method`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Iterable, List, Optional, Sequence, Union

from repro.errors import SchedulingError
from repro.sim.event import Event
from repro.sim.simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

__all__ = ["AnyOf", "YIELD", "Process", "ThreadProcess", "MethodProcess", "WaitSpec"]


class AnyOf:
    """Wait specification: resume when *any* of the given events fires."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events: List[Event] = list(events)
        if not self.events:
            raise SchedulingError("AnyOf requires at least one event")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnyOf({[e.name for e in self.events]})"


class _Yield:
    """Type of the :data:`YIELD` wait specification."""


#: Wait specification: re-queue the thread at the tail of the runnable
#: queue, so it resumes in the same evaluate phase after every process that
#: was runnable when it yielded.
YIELD = _Yield()

WaitSpec = Union[SimTime, Event, AnyOf, _Yield, None]


class Process:
    """Common base for thread and method processes."""

    __slots__ = (
        "kernel",
        "name",
        "static_sensitivity",
        "terminated",
        "queued",
        "_pending_timeout",
        "_waiting_events",
    )

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.static_sensitivity: List[Event] = []
        self.terminated = False
        # True while the process sits in the kernel's runnable queue; an
        # event wake finding it set adds no second entry.
        self.queued = False
        self._pending_timeout = None  # TimedEntry handle for a pending timed wait
        self._waiting_events: List[Event] = []

    # -- wiring -----------------------------------------------------------
    def set_sensitivity(self, events: Sequence[Event]) -> None:
        """Define the static sensitivity list of this process."""
        self.static_sensitivity = list(events)

    # -- kernel interface ---------------------------------------------------
    def start(self) -> None:
        """Called once at the start of simulation."""
        raise NotImplementedError

    def kill(self) -> None:
        """Terminate the process, withdrawing any pending wait.

        The process is removed from every event waiter list and its pending
        timeout (if any) is cancelled, so nothing will ever resume it again.
        Killing an already terminated process is a no-op.
        """
        if self.terminated:
            return
        self.terminated = True
        self._clear_waits()

    def _clear_waits(self) -> None:
        if self._waiting_events:
            for event in self._waiting_events:
                event.remove_waiter(self)
            self._waiting_events = []
        if self._pending_timeout is not None:
            self.kernel.cancel_timed(self._pending_timeout)
            self._pending_timeout = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self).__name__
        return f"{kind}({self.name!r}, terminated={self.terminated})"


class ThreadProcess(Process):
    """A generator-based process (SystemC ``SC_THREAD`` analogue)."""

    __slots__ = ("_func", "_generator")

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        func: Callable[[], Generator[WaitSpec, None, None]],
    ) -> None:
        super().__init__(kernel, name)
        self._func = func
        self._generator: Optional[Generator[WaitSpec, None, None]] = None

    def start(self) -> None:
        """Create the generator and run it up to its first wait."""
        if self.terminated:  # killed before the simulation started
            return
        result = self._func()
        if result is None:
            # A plain function with no yield: it ran to completion already.
            self.terminated = True
            return
        self._generator = result
        self.kernel._step(self)

    def kill(self) -> None:
        """Terminate the thread, running its pending ``finally`` blocks.

        On top of the base cleanup the suspended generator is closed, which
        raises ``GeneratorExit`` at the suspension point — ``try/finally``
        cleanup in the generator (e.g. withdrawing a queued bus request)
        runs exactly as it would for ordinary generator disposal.

        A process may also kill *itself* (directly or through a synchronous
        call made from its own frame): the executing generator cannot be
        closed from within, so termination completes — and the ``finally``
        blocks run — when the generator reaches its next ``yield``.
        """
        if self.terminated:
            return
        super().kill()
        generator = self._generator
        if generator is None:
            return
        if generator.gi_running:
            return  # self-kill: the kernel closes the generator at its next yield
        self._generator = None
        generator.close()

    def _arm(self, spec: WaitSpec) -> None:
        """Register the event wait described by ``spec`` (timed waits and
        :data:`YIELD` are armed by the kernel's stepping routine)."""
        if spec is None:
            if not self.static_sensitivity:
                raise SchedulingError(
                    f"process {self.name!r} yielded None but has no static sensitivity"
                )
            for event in self.static_sensitivity:
                event.add_waiter(self)
                self._waiting_events.append(event)
            return
        if isinstance(spec, Event):
            spec.add_waiter(self)
            self._waiting_events.append(spec)
            return
        if isinstance(spec, AnyOf):
            for event in spec.events:
                event.add_waiter(self)
                self._waiting_events.append(event)
            return
        raise SchedulingError(
            f"process {self.name!r} yielded an invalid wait specification: {spec!r}"
        )


class MethodProcess(Process):
    """A callable re-run on every notification of its sensitivity list."""

    __slots__ = ("_func",)

    def __init__(self, kernel: "Kernel", name: str, func: Callable[[], None]) -> None:
        super().__init__(kernel, name)
        self._func = func

    def start(self) -> None:
        """Arm the static sensitivity; the callable waits for a notification."""
        if self.terminated:  # killed before the simulation started
            return
        self._rearm()

    def resume(self) -> None:
        """Called by the kernel when an event of the sensitivity list fires."""
        self._rearm()
        self._func()

    def _rearm(self) -> None:
        for event in self.static_sensitivity:
            event.add_waiter(self)
