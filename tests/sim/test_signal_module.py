"""Tests for signals, modules, the simulator facade and tracing."""

import pytest

from repro.errors import ElaborationError, SimulationError
from repro.sim import (
    Kernel,
    Module,
    Signal,
    Simulator,
    TraceRecorder,
    ns,
    us,
)


@pytest.fixture
def kernel():
    return Kernel()


class TestSignalSemantics:
    def test_write_is_not_visible_until_update(self, kernel):
        sig = Signal(kernel, "s", 0)
        observed = []

        def writer():
            sig.write(42)
            observed.append(("writer-after-write", sig.read()))
            yield ns(1)
            observed.append(("writer-next-time", sig.read()))

        kernel.create_thread(writer, "writer")
        kernel.run()
        assert observed == [("writer-after-write", 0), ("writer-next-time", 42)]

    def test_changed_event_fires_only_on_change(self, kernel):
        sig = Signal(kernel, "s", 5)
        wakeups = []

        def watcher():
            while True:
                yield sig.changed_event
                wakeups.append((kernel.now.nanoseconds, sig.read()))

        def driver():
            yield ns(1)
            sig.write(5)   # no change: no wakeup
            yield ns(1)
            sig.write(7)   # change
            yield ns(1)
            sig.write(7)   # no change
            yield ns(1)
            sig.write(9)   # change

        kernel.create_thread(watcher, "watcher")
        kernel.create_thread(driver, "driver")
        kernel.run()
        assert wakeups == [(2.0, 7), (4.0, 9)]
        assert sig.change_count == 2
        assert sig.write_count == 4

    def test_last_write_in_delta_wins(self, kernel):
        sig = Signal(kernel, "s", 0)

        def writer():
            sig.write(1)
            sig.write(2)
            sig.write(3)
            yield ns(1)

        kernel.create_thread(writer, "writer")
        kernel.run()
        assert sig.read() == 3
        assert sig.change_count == 1

    def test_changed_event_fires_on_both_edges_of_a_bool_signal(self, kernel):
        sig = Signal(kernel, "flag", False)
        edges = []

        def watcher():
            while True:
                yield sig.changed_event
                edges.append((kernel.now.nanoseconds, sig.read()))

        def driver():
            for value in (True, True, False, True):
                yield ns(5)
                sig.write(value)

        kernel.create_thread(watcher, "watcher")
        kernel.create_thread(driver, "driver")
        kernel.run()
        assert edges == [(5.0, True), (15.0, False), (20.0, True)]

    def test_observers_receive_changes(self, kernel):
        sig = Signal(kernel, "s", 0)
        seen = []
        sig.add_observer(lambda when, value: seen.append((when.nanoseconds, value)))

        def writer():
            yield ns(3)
            sig.write(11)

        kernel.create_thread(writer, "writer")
        kernel.run()
        assert seen == [(3.0, 11)]


class TestModules:
    def test_hierarchy_and_names(self, kernel):
        top = Module(kernel, "top")
        child = Module(kernel, "child", parent=top)
        grandchild = Module(kernel, "leaf", parent=child)
        assert grandchild.name == "top.child.leaf"
        assert top.children == [child]
        assert child.children == [grandchild]

    def test_duplicate_child_name_rejected(self, kernel):
        top = Module(kernel, "top")
        Module(kernel, "a", parent=top)
        with pytest.raises(ElaborationError):
            Module(kernel, "a", parent=top)

    def test_empty_name_rejected(self, kernel):
        with pytest.raises(ElaborationError):
            Module(kernel, "")

    def test_module_signal_names_are_hierarchical(self, kernel):
        top = Module(kernel, "top")
        sig = top.signal("state", 0)
        assert sig.name == "top.state"

    def test_module_event_and_process_names_are_hierarchical(self, kernel):
        top = Module(kernel, "top")
        child = Module(kernel, "child", parent=top)
        tick = child.event("tick")

        def worker():
            yield ns(1)

        thread = child.add_thread(worker)
        method = child.add_method(lambda: None, [tick], name="on_tick")
        assert tick.name == "top.child.tick"
        assert thread.name == "top.child.worker"
        assert method.name == "top.child.on_tick"
        assert child.processes == [thread, method]
        assert top.processes == []

    def test_module_method_runs_only_when_notified(self, kernel):
        top = Module(kernel, "top")
        tick = top.event("tick")
        level = top.signal("level", 0)
        calls = []
        top.add_method(lambda: calls.append(kernel.now.nanoseconds), [tick, level.changed_event])

        def driver():
            yield ns(4)
            tick.notify()
            yield ns(4)
            level.write(1)

        top.add_thread(driver)
        kernel.run()
        assert calls == [4.0, 8.0]
        assert top.signals == [level]

    def test_design_tree_contains_children(self, kernel):
        top = Module(kernel, "top")
        Module(kernel, "child", parent=top)
        tree = top.design_tree()
        assert "top" in tree and "child" in tree


class TestSimulatorFacade:
    def test_simulator_runs_module_processes(self):
        sim = Simulator()
        kernel = sim.kernel

        class Counter(Module):
            def __init__(self, kernel, name):
                super().__init__(kernel, name)
                self.count = self.signal("count", 0)
                self.add_thread(self._run)

            def _run(self):
                while True:
                    yield ns(10)
                    self.count.write(self.count.read() + 1)

        counter = sim.add_module(Counter(kernel, "counter"))
        sim.run(ns(55))
        assert counter.count.read() == 5

    def test_add_module_rejects_non_top(self):
        sim = Simulator()
        top = Module(sim.kernel, "top")
        child = Module(sim.kernel, "child", parent=top)
        with pytest.raises(ElaborationError):
            sim.add_module(child)

    def test_empty_simulator_runs(self):
        sim = Simulator()
        report = sim.run(ns(10))
        assert report.simulated_time == ns(10)

    def test_report_contains_throughput(self):
        sim = Simulator()
        report = sim.run(us(1), clock_period=ns(10))
        assert report.cycles_simulated == pytest.approx(100.0)
        assert report.simulated_time == us(1)
        assert report.wall_clock_seconds >= 0.0
        assert "delta_cycles" in report.as_dict()


class TestTraceRecorder:
    def test_histories_and_value_at(self):
        sim = Simulator(trace=True)
        kernel = sim.kernel

        class Stepper(Module):
            def __init__(self, kernel, name):
                super().__init__(kernel, name)
                self.level = self.signal("level", 0)
                self.add_thread(self._run)

            def _run(self):
                for value in (1, 2, 3):
                    yield ns(10)
                    self.level.write(value)

        stepper = sim.add_module(Stepper(kernel, "stepper"))
        sim.trace.watch(stepper.level)
        sim.run(ns(100))
        history = sim.trace.history("stepper.level")
        assert [v for _, v in history] == [0, 1, 2, 3]
        assert sim.trace.value_at("stepper.level", ns(15)) == 1
        assert sim.trace.value_at("stepper.level", ns(35)) == 3
        assert sim.trace.change_count("stepper.level") == 3

    def test_durations_by_value(self):
        sim = Simulator(trace=True)
        kernel = sim.kernel

        class Stepper(Module):
            def __init__(self, kernel, name):
                super().__init__(kernel, name)
                self.level = self.signal("level", "A")
                self.add_thread(self._run)

            def _run(self):
                yield ns(10)
                self.level.write("B")
                yield ns(30)
                self.level.write("A")

        stepper = sim.add_module(Stepper(kernel, "stepper"))
        sim.trace.watch(stepper.level)
        sim.run(ns(100))
        durations = sim.trace.durations_by_value("stepper.level", ns(100))
        assert durations["A"].nanoseconds == pytest.approx(70.0)
        assert durations["B"].nanoseconds == pytest.approx(30.0)

    def test_duplicate_watch_rejected(self):
        kernel = Kernel()
        sig = Signal(kernel, "s", 0)
        trace = TraceRecorder()
        trace.watch(sig)
        with pytest.raises(SimulationError):
            trace.watch(sig)

    def test_unknown_history_rejected(self):
        trace = TraceRecorder()
        with pytest.raises(SimulationError):
            trace.history("ghost")

    def test_vcd_export_contains_signals(self, tmp_path):
        kernel = Kernel()
        sig = Signal(kernel, "top.state", "ON1")
        trace = TraceRecorder()
        trace.watch(sig)

        def writer():
            yield ns(5)
            sig.write("SL1")

        kernel.create_thread(writer, "writer")
        kernel.run()
        vcd = trace.to_vcd(ns(10))
        assert "$timescale" in vcd
        assert "top.state" in vcd
        assert "SL1" in vcd
        path = tmp_path / "wave.vcd"
        trace.write_vcd(str(path), ns(10))
        assert path.read_text().startswith("$comment")
