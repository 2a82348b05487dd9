"""Signal tracing: in-memory waveform capture and VCD export.

The :class:`TraceRecorder` subscribes to signal changes and stores
``(time, value)`` samples per signal.  Traces are used by the analysis layer
(state residency, transition counts) and can be exported to a minimal VCD
file for inspection in a waveform viewer.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.signal import Signal
from repro.sim.simtime import SimTime, TimeUnit, ZERO_TIME

__all__ = ["TraceRecorder"]

_VCD_ID_ALPHABET = "".join(chr(c) for c in range(33, 127))


class TraceRecorder:
    """Record the value history of a set of signals.

    Examples
    --------
    >>> trace = TraceRecorder()
    >>> trace.watch(some_signal)          # doctest: +SKIP
    >>> kernel.run(us(10))                # doctest: +SKIP
    >>> trace.history("top.psm.state")    # doctest: +SKIP
    [(SimTime(0 s), 'ON1'), ...]
    """

    def __init__(self, timescale: TimeUnit = TimeUnit.NS) -> None:
        self.timescale = timescale
        self._histories: Dict[str, List[Tuple[SimTime, object]]] = {}
        self._signals: Dict[str, Signal] = {}
        # One observer callable per traced name, kept so unwatch/close can
        # detach them again (an anonymous lambda would pin the observer —
        # and the recorder — to the signal for the signal's lifetime).
        self._observers: Dict[str, object] = {}

    # -- capture -------------------------------------------------------
    def watch(self, signal: Signal, alias: Optional[str] = None) -> None:
        """Start recording ``signal``; the initial value is stored at time 0."""
        name = alias or signal.name
        if name in self._histories:
            raise SimulationError(f"signal {name!r} is already traced")
        self._signals[name] = signal
        self._histories[name] = [(ZERO_TIME, signal.read())]
        observer = lambda when, value, key=name: self._record(key, when, value)
        self._observers[name] = observer
        signal.add_observer(observer)

    def watch_all(self, signals: Sequence[Signal]) -> None:
        """Trace every signal in ``signals``."""
        for signal in signals:
            self.watch(signal)

    def unwatch(self, name: str) -> None:
        """Stop recording one signal, detaching its observer.

        The captured history stays queryable; only live capture ends.
        """
        observer = self._observers.pop(name, None)
        if observer is None:
            raise SimulationError(f"signal {name!r} is not traced")
        self._signals[name].remove_observer(observer)

    def close(self) -> None:
        """Detach every live observer (histories stay queryable).

        Idempotent; call when the recorder's capture phase is over so the
        recorder no longer pins itself to the watched signals.
        """
        for name in list(self._observers):
            self.unwatch(name)

    def _record(self, name: str, when: SimTime, value: object) -> None:
        self._histories[name].append((when, value))

    # -- queries ---------------------------------------------------------
    @property
    def traced_names(self) -> List[str]:
        """Names of all traced signals."""
        return list(self._histories)

    def history(self, name: str) -> List[Tuple[SimTime, object]]:
        """Full ``(time, value)`` history of one signal (including t=0)."""
        try:
            return list(self._histories[name])
        except KeyError:
            raise SimulationError(f"signal {name!r} is not traced") from None

    def value_at(self, name: str, when: SimTime) -> object:
        """Value of the signal at simulated time ``when``."""
        history = self.history(name)
        result = history[0][1]
        for time, value in history:
            if time.femtoseconds <= when.femtoseconds:
                result = value
            else:
                break
        return result

    def change_count(self, name: str) -> int:
        """Number of recorded value changes (excluding the initial sample)."""
        return len(self.history(name)) - 1

    def durations_by_value(self, name: str, end_time: SimTime) -> Dict[object, SimTime]:
        """Total time spent at each distinct value up to ``end_time``."""
        history = self.history(name)
        durations: Dict[object, SimTime] = {}
        for index, (start, value) in enumerate(history):
            if start.femtoseconds >= end_time.femtoseconds:
                break
            stop = history[index + 1][0] if index + 1 < len(history) else end_time
            if stop.femtoseconds > end_time.femtoseconds:
                stop = end_time
            span = stop - start
            durations[value] = durations.get(value, ZERO_TIME) + span
        return durations

    # -- VCD export ---------------------------------------------------------
    def to_vcd(self, end_time: SimTime, comment: str = "repro trace") -> str:
        """Render the captured trace as a VCD document (returned as a string)."""
        out = io.StringIO()
        out.write(f"$comment {comment} $end\n")
        out.write(f"$timescale 1{self.timescale.symbol} $end\n")
        out.write("$scope module repro $end\n")
        identifiers: Dict[str, str] = {}
        for index, name in enumerate(self._histories):
            identifiers[name] = self._vcd_identifier(index)
            out.write(f"$var wire 64 {identifiers[name]} {name.replace(' ', '_')} $end\n")
        out.write("$upscope $end\n$enddefinitions $end\n")
        samples: List[Tuple[int, str, object]] = []
        for name, history in self._histories.items():
            for when, value in history:
                samples.append((when.femtoseconds, identifiers[name], value))
        samples.sort(key=lambda item: item[0])
        last_stamp = None
        for stamp_fs, identifier, value in samples:
            stamp = int(round(stamp_fs / self.timescale.femtoseconds))
            if stamp != last_stamp:
                out.write(f"#{stamp}\n")
                last_stamp = stamp
            out.write(f"s{self._vcd_value(value)} {identifier}\n")
        end_stamp = int(round(end_time.femtoseconds / self.timescale.femtoseconds))
        if last_stamp != end_stamp:
            out.write(f"#{end_stamp}\n")
        return out.getvalue()

    def write_vcd(self, path: str, end_time: SimTime, comment: str = "repro trace") -> None:
        """Write :meth:`to_vcd` output to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_vcd(end_time, comment))

    @staticmethod
    def _vcd_identifier(index: int) -> str:
        alphabet = _VCD_ID_ALPHABET
        if index < len(alphabet):
            return alphabet[index]
        return alphabet[index // len(alphabet)] + alphabet[index % len(alphabet)]

    @staticmethod
    def _vcd_value(value: object) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value).replace(" ", "_")
