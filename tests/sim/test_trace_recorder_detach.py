"""Observer-leak regression tests: TraceRecorder.unwatch/close and
Signal.remove_observer.

Before these existed, every ``watch`` pinned an anonymous observer to the
signal for the signal's lifetime — which is a memory leak, and worse: the
bus level signal gates its writes on observer presence, so a stale observer
silently changes which writes happen at all.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel, Signal, TraceRecorder
from repro.sim.simtime import us


def _make_signal(name="sig"):
    kernel = Kernel()
    return kernel, Signal(kernel, name, 0)


class TestRemoveObserver:
    def test_remove_returns_true_and_detaches(self):
        _, signal = _make_signal()
        seen = []
        observer = lambda when, value: seen.append(value)
        signal.add_observer(observer)
        assert signal.remove_observer(observer) is True
        assert signal._observers == []

    def test_remove_unknown_returns_false(self):
        _, signal = _make_signal()
        assert signal.remove_observer(lambda when, value: None) is False


class TestRecorderDetach:
    def test_unwatch_detaches_but_keeps_history(self):
        kernel, signal = _make_signal()
        recorder = TraceRecorder()
        recorder.watch(signal)
        assert len(signal._observers) == 1
        signal.write(1)
        kernel.run(us(1))
        recorder.unwatch(signal.name)
        assert signal._observers == []
        # Captured history stays queryable after detach...
        assert recorder.change_count(signal.name) == 1
        # ...but live capture has ended.
        signal.write(2)
        kernel.run(us(1))
        assert recorder.change_count(signal.name) == 1

    def test_unwatch_unknown_name_raises(self):
        recorder = TraceRecorder()
        with pytest.raises(SimulationError):
            recorder.unwatch("never-watched")

    def test_close_detaches_everything_and_is_idempotent(self):
        kernel, signal = _make_signal("a")
        other = Signal(kernel, "b", 0)
        recorder = TraceRecorder()
        recorder.watch(signal)
        recorder.watch(other)
        recorder.close()
        assert signal._observers == []
        assert other._observers == []
        recorder.close()  # no-op, no raise
        assert recorder.traced_names == ["a", "b"]

    def test_unwatch_only_removes_own_observer(self):
        kernel, signal = _make_signal()
        seen = []
        foreign = lambda when, value: seen.append(value)
        signal.add_observer(foreign)
        recorder = TraceRecorder()
        recorder.watch(signal)
        recorder.unwatch(signal.name)
        assert signal._observers == [foreign]
