"""The discrete-event scheduler (SystemC-like evaluate/update/delta kernel).

The :class:`Kernel` implements the classic SystemC 2.0 scheduling algorithm:

1. *Evaluate phase*: run every runnable process.  Processes may write
   primitive channels (signals), notify events immediately, or schedule
   delta/timed notifications.
2. *Update phase*: apply the pending writes of every primitive channel that
   requested an update.
3. *Delta notification phase*: fire delta-notified events, making their
   waiters runnable.  If any process became runnable, repeat from step 1 at
   the same simulated time (one *delta cycle* has elapsed).
4. Otherwise advance simulated time to the earliest timed notification and
   repeat, until there is no pending activity, the requested duration has
   elapsed, or :meth:`Kernel.stop` was called.

Same-femtosecond ordering contract
----------------------------------
Everything that happens at one simulated instant is ordered as follows, and
the goldens depend on it:

* **Timed entries pop in push order.**  Event notifications and process
  timeouts maturing at the same femtosecond share one queue keyed by
  ``(time, push sequence)``, so they take effect in the order they were
  scheduled.
* **Timed-event callbacks run during the time advance.**  When a timed
  event matures its callbacks (for instance the cycle-accurate bus's
  ``_arb_timer``) run while the kernel advances time, before any process
  of that instant resumes.
* **Immediate notifications queue behind the runnable set.**  ``notify()``
  appends the waiters to the end of the runnable queue: processes that are
  already runnable in this evaluate phase run first.
* **A yielded thread resumes behind the runnable set.**  ``yield YIELD``
  appends the thread itself to the end of the runnable queue, exactly where
  an immediate notification would put it: it resumes in the same evaluate
  phase (and delta cycle), after every process that was runnable when it
  yielded and before any process woken later in the phase.
* **Delta events fire after the update phase.**  A delta notification made
  during an evaluate phase fires once that phase's signal writes are
  visible, so its waiters read the updated values.
* **A process resumes at most once per wake.**  A process woken by several
  events in the same phase — two delta events, two immediate notifications,
  or two timed events at the same instant — is queued once and resumes
  once.

The kernel is deliberately independent from the module system: it only knows
about :class:`~repro.sim.event.Event` and
:class:`~repro.sim.process.Process` objects, which keeps it easy to test in
isolation and to reuse for non-hardware models (the battery and thermal
models use plain processes, for instance).

Internally the hot path works on raw integer femtoseconds and is one loop,
:meth:`Kernel._loop`: it runs the delta cycles of an instant, advances time
to the earliest timed entry, pops that instant's due entries with
:meth:`~repro.sim.event.TimedQueue.pop_due` and goes round again.  A thread
is stepped by :meth:`Kernel._step`, the one place a generator is resumed
(:meth:`ThreadProcess.start` uses it too): it runs the generator to its next
wait and arms that wait.  A pure timed wait (``yield SimTime``), the dominant
activation in this library, is re-armed with one heap push and resumed with
no waiter-list or cancellation bookkeeping.  No
:class:`~repro.sim.simtime.SimTime` is built per event; a cached view of the
current instant is built on demand, so :attr:`Kernel.now` stays the public
value type without per-read allocation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import Deque, List, Optional, Set

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import Event, TimedQueue
from repro.sim.process import YIELD, MethodProcess, Process, ThreadProcess
from repro.sim.simtime import SimTime, ZERO_TIME

__all__ = ["Kernel", "KernelStatistics"]


@dataclass
class KernelStatistics:
    """Counters describing how much work a simulation performed."""

    process_activations: int = 0
    delta_cycles: int = 0
    timed_notifications: int = 0
    immediate_notifications: int = 0
    signal_updates: int = 0
    events_created: int = 0
    processes_created: int = 0
    time_advances: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Return the statistics as a plain dictionary."""
        data = {
            "process_activations": self.process_activations,
            "delta_cycles": self.delta_cycles,
            "timed_notifications": self.timed_notifications,
            "immediate_notifications": self.immediate_notifications,
            "signal_updates": self.signal_updates,
            "events_created": self.events_created,
            "processes_created": self.processes_created,
            "time_advances": self.time_advances,
        }
        data.update(self.extra)
        return data


class Kernel:
    """Discrete-event scheduler with SystemC evaluate/update/delta semantics."""

    def __init__(self) -> None:
        self._now_fs: int = 0
        self._now: SimTime = ZERO_TIME  # cached SimTime view of _now_fs
        # Processes to run in the current evaluate phase, in wake order.
        self._runnable: Deque[Process] = deque()
        # The delta/update queues preserve insertion order (lists) but use
        # side sets for O(1) dedup — membership scans dominated the hot path.
        self._delta_events: List[Event] = []
        self._delta_scheduled: Set[Event] = set()
        self._update_queue: List = []
        self._update_scheduled: Set = set()
        self._timed = TimedQueue()
        self._timed_heap = self._timed._heap  # never replaced (see TimedQueue)
        self._processes: List[Process] = []
        self._initialized = False
        self._stop_requested = False
        self._running = False
        self.stats = KernelStatistics()

    # ------------------------------------------------------------------
    # Factory helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a new :class:`Event` owned by this kernel."""
        self.stats.events_created += 1
        return Event(self, name)

    def create_thread(self, func, name: str) -> ThreadProcess:
        """Create and register a thread process from a generator function."""
        process = ThreadProcess(self, name, func)
        self.register_process(process)
        return process

    def create_method(self, func, sensitivity, name: str) -> MethodProcess:
        """Create and register a method process with a static sensitivity list."""
        process = MethodProcess(self, name, func)
        process.set_sensitivity(list(sensitivity))
        self.register_process(process)
        return process

    def register_process(self, process: Process) -> None:
        """Register an externally created process with the scheduler."""
        self._processes.append(process)
        self.stats.processes_created += 1
        if self._initialized:
            # Processes created after initialisation start immediately,
            # running up to their first wait (like sc_spawn).
            process.start()
            self.stats.process_activations += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulated time."""
        now = self._now
        if now is None:
            # Built lazily: most time advances (pure timed waits) are never
            # observed through the SimTime view.
            now = self._now = SimTime(self._now_fs)
        return now

    @property
    def now_fs(self) -> int:
        """Current simulated time as raw integer femtoseconds."""
        return self._now_fs

    @property
    def pending_activity(self) -> bool:
        """True if any work (runnable, delta or timed) remains.

        Cancelled-only timed entries do not count: the timed queue tracks its
        live entry count, so a heap full of withdrawn notifications reports
        no pending activity.
        """
        return bool(self._runnable or self._delta_events or self._update_queue or len(self._timed))

    # ------------------------------------------------------------------
    # Scheduling requests (called by events, signals and processes)
    # ------------------------------------------------------------------
    def schedule_immediate(self, event: Event) -> None:
        """Immediate notification: wake waiters within the current phase."""
        self.stats.immediate_notifications += 1
        event.fire(self._runnable)

    def schedule_delta(self, event: Event) -> None:
        """Delta notification: fire the event in the next delta cycle."""
        scheduled = self._delta_scheduled
        if event not in scheduled:
            scheduled.add(event)
            self._delta_events.append(event)

    def schedule_timed(self, event: Event, delay: SimTime):
        """Timed notification of ``event`` after ``delay``."""
        self.stats.timed_notifications += 1
        return self._timed.push(self._now_fs + delay, event)

    def cancel_timed(self, handle) -> None:
        """Cancel a previously scheduled timed notification."""
        self._timed.cancel(handle)

    def request_update(self, channel) -> None:
        """Queue a primitive channel for the next update phase."""
        scheduled = self._update_scheduled
        if channel not in scheduled:
            scheduled.add(channel)
            self._update_queue.append(channel)

    def stop(self) -> None:
        """Request the simulation to stop at the end of the current delta."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Start every registered process (runs them to their first wait)
        and resolve the activity this creates at the current instant."""
        if self._initialized:
            return
        self._initialized = True
        for process in self._processes:
            process.start()
            self.stats.process_activations += 1
        self._loop(self._now_fs)

    def run(self, duration: Optional[SimTime] = None) -> SimTime:
        """Run the simulation.

        Parameters
        ----------
        duration:
            If given, simulate for at most this much additional simulated
            time.  If omitted, run until there is no pending activity or
            :meth:`stop` is called.

        Returns
        -------
        SimTime
            The simulated time at which execution stopped.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        if duration is not None and not isinstance(duration, SimTime):
            raise TypeError(
                f"run() duration must be a SimTime, not {type(duration).__name__}"
            )
        self._running = True
        self._stop_requested = False
        try:
            self.initialize()
            self._loop(None if duration is None else self._now_fs + duration)
            return self.now
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _loop(self, end_fs: Optional[int]) -> None:
        """The time loop: the delta cycles of each instant, then a time advance.

        Runs until no activity is left, :meth:`stop` is called, or the next
        timed entry lies beyond ``end_fs``; time then stands at ``end_fs``
        (when given and not stopped).
        """
        runnable = self._runnable
        timed = self._timed
        pop_due = timed.pop_due
        step = self._step
        activations = 0
        delta_cycles = 0
        signal_updates = 0
        time_advances = 0
        try:
            while True:
                while (runnable or self._delta_events or self._update_queue) and not self._stop_requested:
                    # Evaluate phase.
                    while runnable:
                        process = runnable.popleft()
                        process.queued = False
                        if process.terminated:
                            continue
                        if process.__class__ is ThreadProcess:
                            step(process)
                        else:
                            process.resume()
                        activations += 1
                    # Update phase.
                    if self._update_queue:
                        updates, self._update_queue = self._update_queue, []
                        self._update_scheduled.clear()
                        for channel in updates:
                            channel.update()
                        signal_updates += len(updates)
                    # Delta notification phase.
                    if self._delta_events:
                        delta_events, self._delta_events = self._delta_events, []
                        self._delta_scheduled.clear()
                        for event in delta_events:
                            event.fire(runnable)
                    delta_cycles += 1
                if self._stop_requested:
                    return
                next_fs = timed.next_time_fs()
                if next_fs is None or (end_fs is not None and next_fs > end_fs):
                    if end_fs is not None and end_fs > self._now_fs:
                        # Also on starvation before the requested end time,
                        # so repeated run() calls stay monotonic.
                        self._now_fs = end_fs
                        self._now = None
                    return
                if next_fs < self._now_fs:  # pragma: no cover - defensive
                    raise SchedulingError("attempted to move simulated time backwards")
                # Time advance: timed-event callbacks run now, before any
                # process of the instant resumes.
                self._now_fs = next_fs
                self._now = None  # SimTime view rebuilt on demand (see Kernel.now)
                time_advances += 1
                for payload in pop_due(next_fs):
                    if payload.__class__ is Event:
                        payload.fire(runnable)
                    else:
                        # Pure timed wake: drop the consumed handle so the
                        # step skips all wait bookkeeping.
                        payload._pending_timeout = None
                        runnable.append(payload)
        finally:
            stats = self.stats
            stats.process_activations += activations
            stats.delta_cycles += delta_cycles
            stats.signal_updates += signal_updates
            stats.time_advances += time_advances

    def _step(self, thread: ThreadProcess) -> None:
        """Run ``thread`` to its next wait and arm that wait.

        The only place a thread's generator is resumed: the time loop calls
        it for every thread activation and :meth:`ThreadProcess.start` for
        the first.  Whatever is left of the previous wait is withdrawn first
        (nothing, after a matured pure timed wait).
        """
        if thread._waiting_events or thread._pending_timeout is not None:
            thread._clear_waits()
        generator = thread._generator
        if generator is None:
            thread.terminated = True
            return
        try:
            spec = next(generator)
        except StopIteration:
            thread.terminated = True
            return
        if thread.terminated:
            # The thread killed itself while executing; now that the
            # generator is suspended it can be closed (finally blocks run).
            thread._generator = None
            generator.close()
            return
        if isinstance(spec, SimTime):
            # Dominant wait: a plain timed delay, armed with one heap push.
            timed = self._timed
            sequence = timed._next_sequence
            timed._next_sequence = sequence + 1
            entry = [self._now_fs + spec, sequence, thread, False]
            heappush(self._timed_heap, entry)
            timed._live += 1
            thread._pending_timeout = entry
            self.stats.timed_notifications += 1
            return
        if spec is YIELD:
            thread.queued = True
            self._runnable.append(thread)
            return
        thread._arm(spec)
