"""Signals: primitive channels with SystemC request/update semantics.

A :class:`Signal` holds a value that is only visible to readers *after* the
update phase of the delta cycle in which it was written.  This gives the
usual hardware-description determinism: every process reading a signal in
the same delta cycle observes the same (old) value regardless of execution
order.

Signals expose three notification events:

* ``changed_event`` — notified whenever the stored value actually changes;
* ``posedge_event`` / ``negedge_event`` — for boolean signals, notified on
  rising / falling transitions (used by clocked processes).
"""

from __future__ import annotations

from typing import Callable, Generic, List, Optional, TypeVar

from repro.sim.event import Event
from repro.sim.kernel import Kernel
from repro.sim.simtime import SimTime

__all__ = ["Signal"]

T = TypeVar("T")


class Signal(Generic[T]):
    """A value holder with deferred (delta-cycle) update semantics.

    Parameters
    ----------
    kernel:
        The owning kernel.
    name:
        Hierarchical name, used for traces and error messages.
    initial:
        Initial value, visible from time zero.
    """

    __slots__ = (
        "_kernel",
        "name",
        "_current",
        "_next",
        "changed_event",
        "_posedge_event",
        "_negedge_event",
        "_observers",
        "_write_count",
        "_change_count",
    )

    def __init__(self, kernel: Kernel, name: str, initial: T) -> None:
        self._kernel = kernel
        self.name = name
        self._current: T = initial
        self._next: T = initial
        self.changed_event: Event = kernel.event(f"{name}.changed")
        self._posedge_event: Optional[Event] = None
        self._negedge_event: Optional[Event] = None
        self._observers: List[Callable[[SimTime, T], None]] = []
        self._write_count = 0
        self._change_count = 0

    # -- value access -----------------------------------------------------
    def read(self) -> T:
        """Return the current (stable) value."""
        return self._current

    @property
    def value(self) -> T:
        """Alias for :meth:`read`, convenient in expressions."""
        return self._current

    def write(self, value: T) -> None:
        """Schedule ``value`` to become visible after the next update phase."""
        self._write_count += 1
        self._next = value
        if value != self._current:
            self._kernel.request_update(self)

    # -- events -------------------------------------------------------------
    @property
    def posedge_event(self) -> Event:
        """Event notified when a boolean signal rises (False -> True)."""
        if self._posedge_event is None:
            self._posedge_event = self._kernel.event(f"{self.name}.posedge")
        return self._posedge_event

    @property
    def negedge_event(self) -> Event:
        """Event notified when a boolean signal falls (True -> False)."""
        if self._negedge_event is None:
            self._negedge_event = self._kernel.event(f"{self.name}.negedge")
        return self._negedge_event

    def add_observer(self, callback: Callable[[SimTime, T], None]) -> None:
        """Register a callback invoked with ``(time, new_value)`` on change."""
        self._observers.append(callback)

    def remove_observer(self, callback: Callable[[SimTime, T], None]) -> bool:
        """Detach a previously registered observer.

        Returns True when the callback was attached (and is now removed);
        False for an unknown callback.  Detaching matters beyond memory: a
        stale observer keeps running (and keeps its owner alive) on every
        later change of the signal.
        """
        try:
            self._observers.remove(callback)
        except ValueError:
            return False
        return True

    # -- statistics ---------------------------------------------------------
    @property
    def write_count(self) -> int:
        """Total number of writes (including writes of an unchanged value)."""
        return self._write_count

    @property
    def change_count(self) -> int:
        """Number of times the visible value actually changed."""
        return self._change_count

    # -- kernel interface -----------------------------------------------------
    def update(self) -> None:
        """Apply the pending write; called by the kernel in the update phase.

        Notification events with neither waiters nor callbacks are not
        scheduled at all: the update phase runs after the evaluate phase, so
        the waiter set is final and firing such an event in the next delta
        cycle could not wake anything.  Skipping them keeps waiter-less
        signal traffic (status/debug signals nobody listens to) from forcing
        empty delta cycles through the kernel.
        """
        new = self._next
        old = self._current
        if new == old:
            return
        self._current = new
        self._change_count += 1
        kernel = self._kernel
        changed = self.changed_event
        if changed._waiters or changed._callbacks:
            kernel.schedule_delta(changed)
        posedge = self._posedge_event
        negedge = self._negedge_event
        if posedge is not None or negedge is not None:
            if isinstance(old, bool) or isinstance(new, bool):
                if not old and new and posedge is not None and (posedge._waiters or posedge._callbacks):
                    kernel.schedule_delta(posedge)
                if old and not new and negedge is not None and (negedge._waiters or negedge._callbacks):
                    kernel.schedule_delta(negedge)
        if self._observers:
            now = kernel.now
            for observer in self._observers:
                observer(now, new)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signal({self.name!r}, value={self._current!r})"
