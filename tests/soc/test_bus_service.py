"""Tests for the shared bus and the service-request channel."""

import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.sim import AnyOf, Kernel, Simulator, ms, us
from repro.soc import (
    Bus,
    BusLevel,
    BusThresholds,
    ServiceChannel,
    ServiceRequestGenerator,
    Task,
    periodic_workload,
)
from repro.soc.service import ServiceRequest


class TestBus:
    def make_bus(self, arbitration="priority", words_per_second=1e6):
        sim = Simulator()
        bus = Bus(sim.kernel, "bus", words_per_second=words_per_second, arbitration=arbitration)
        sim.add_module(bus)
        return sim, bus

    def test_invalid_configuration_rejected(self):
        kernel = Kernel()
        with pytest.raises(ConfigurationError):
            Bus(kernel, "bus", words_per_second=0.0)
        with pytest.raises(ConfigurationError):
            Bus(kernel, "bus2", arbitration="lottery")

    def test_transfer_duration(self):
        _, bus = self.make_bus()
        assert bus.transfer_duration(1000).seconds == pytest.approx(1e-3)
        with pytest.raises(ConfigurationError):
            bus.transfer_duration(0)

    def test_single_master_transfer(self):
        sim, bus = self.make_bus()
        log = []

        def master():
            yield from bus.transfer("m0", 500)
            log.append(sim.now.seconds)

        sim.kernel.create_thread(master, "m0")
        sim.run(ms(10))
        assert log == [pytest.approx(5e-4)]
        assert bus.stats.transfer_count == 1
        assert bus.stats.words_transferred == 500
        assert bus.stats.per_master_words["m0"] == 500
        assert not bus.is_busy

    def test_contention_serialises_transfers(self):
        sim, bus = self.make_bus(arbitration="fifo")
        completions = []

        def master(name):
            def proc():
                yield from bus.transfer(name, 1000)
                completions.append((name, sim.now.seconds))
            return proc

        sim.kernel.create_thread(master("m0"), "m0")
        sim.kernel.create_thread(master("m1"), "m1")
        sim.run(ms(10))
        assert [name for name, _ in completions] == ["m0", "m1"]
        assert completions[0][1] == pytest.approx(1e-3)
        assert completions[1][1] == pytest.approx(2e-3)
        assert bus.stats.busy_time.seconds == pytest.approx(2e-3)

    def test_priority_arbitration_prefers_low_number(self):
        sim, bus = self.make_bus(arbitration="priority")
        completions = []

        def holder():
            yield from bus.transfer("holder", 1000, priority=0)
            completions.append("holder")

        def low_priority():
            yield us(10)
            yield from bus.transfer("low", 1000, priority=5)
            completions.append("low")

        def high_priority():
            yield us(20)
            yield from bus.transfer("high", 1000, priority=1)
            completions.append("high")

        sim.kernel.create_thread(holder, "holder")
        sim.kernel.create_thread(low_priority, "low")
        sim.kernel.create_thread(high_priority, "high")
        sim.run(ms(10))
        # While the holder owns the bus both others queue; the high-priority
        # master (lower number) wins the next grant despite arriving later.
        assert completions == ["holder", "high", "low"]

    def test_occupancy_and_waiting_stats(self):
        sim, bus = self.make_bus()

        def master(name, delay):
            def proc():
                yield delay
                yield from bus.transfer(name, 2000)
            return proc

        sim.kernel.create_thread(master("m0", us(0)), "m0")
        sim.kernel.create_thread(master("m1", us(10)), "m1")
        sim.run(ms(10))
        assert 0.0 < bus.occupancy() <= 1.0
        assert bus.stats.average_wait().seconds > 0.0
        assert bus.stats.occupancy(ms(4)) == pytest.approx(1.0)

    def test_fifo_contention_grants_in_arrival_order(self):
        sim, bus = self.make_bus(arbitration="fifo")
        completions = []

        def master(name, delay, priority):
            def proc():
                yield delay
                yield from bus.transfer(name, 1000, priority=priority)
                completions.append(name)
            return proc

        # Later arrivals carry *better* priority numbers: FIFO must ignore them.
        sim.kernel.create_thread(master("m0", us(0), 9), "m0")
        sim.kernel.create_thread(master("m1", us(10), 1), "m1")
        sim.kernel.create_thread(master("m2", us(20), 0), "m2")
        sim.run(ms(10))
        assert completions == ["m0", "m1", "m2"]

    def test_priority_contention_is_unfair_by_design(self):
        sim, bus = self.make_bus(arbitration="priority")
        completions = []

        def master(name, delay, priority):
            def proc():
                yield delay
                yield from bus.transfer(name, 1000, priority=priority)
                completions.append(name)
            return proc

        sim.kernel.create_thread(master("m0", us(0), 9), "m0")
        sim.kernel.create_thread(master("m1", us(10), 1), "m1")
        sim.kernel.create_thread(master("m2", us(20), 0), "m2")
        sim.run(ms(10))
        # Same arrival pattern as the FIFO test, opposite outcome: the best
        # priority number wins every re-arbitration.
        assert completions == ["m0", "m2", "m1"]


class TestBusStatisticsMidRun:
    """The statistics bugs: mid-run reads must not under/over-report."""

    def make_bus(self, **kwargs):
        sim = Simulator()
        bus = Bus(sim.kernel, "bus", words_per_second=1e6, **kwargs)
        sim.add_module(bus)
        return sim, bus

    def test_mid_transfer_occupancy_credits_in_flight_portion(self):
        sim, bus = self.make_bus()

        def master():
            yield from bus.transfer("m0", 1000)  # 1 ms at 1e6 words/s

        sim.kernel.create_thread(master, "m0")
        sim.run(us(500))
        # Half the transfer elapsed and the bus was busy the whole time; the
        # stats have credited nothing yet (release has not happened).
        assert bus.stats.busy_time.is_zero
        assert bus.occupancy() == pytest.approx(1.0)
        assert bus.busy_time_so_far().seconds == pytest.approx(500e-6)
        sim.run(ms(10))
        assert bus.occupancy() < 1.0
        assert bus.stats.busy_time.seconds == pytest.approx(1e-3)

    def test_average_wait_counts_granted_population_mid_run(self):
        sim, bus = self.make_bus()

        def master(name, delay):
            def proc():
                yield delay
                yield from bus.transfer(name, 1000)
            return proc

        sim.kernel.create_thread(master("m0", us(0)), "m0")
        sim.kernel.create_thread(master("m1", us(100)), "m1")
        sim.run(us(1500))
        # m0 waited 0 and completed; m1 waited 900 us, was granted at 1 ms
        # and is still transferring.  Release-based counting would divide
        # m1's wait by m0's lone completed transfer (900 us); the grant-based
        # figures agree: two grants, 450 us average.
        assert bus.stats.transfer_count == 1
        assert bus.stats.grant_count == 2
        assert bus.stats.average_wait().seconds == pytest.approx(450e-6)

    def test_wait_time_is_recorded_on_the_request(self):
        sim, bus = self.make_bus()
        handles = []

        def master(name, delay):
            def proc():
                yield delay
                handle = bus.request(name, 1000)
                handles.append(handle)
                if not handle.granted:
                    yield handle.event
                yield handle.duration
                bus.complete(handle)
            return proc

        sim.kernel.create_thread(master("m0", us(0)), "m0")
        sim.kernel.create_thread(master("m1", us(100)), "m1")
        sim.run(ms(5))
        assert handles[0].wait_time.is_zero
        assert handles[1].wait_time.seconds == pytest.approx(900e-6)


class TestBusCancellation:
    """Cancellation-safe arbitration: dead masters can never wedge the bus."""

    def make_bus(self, **kwargs):
        sim = Simulator()
        bus = Bus(sim.kernel, "bus", words_per_second=1e6, **kwargs)
        sim.add_module(bus)
        return sim, bus

    def _spawn_transfer(self, sim, bus, name, delay, words=1000, log=None):
        def proc():
            yield delay
            yield from bus.transfer(name, words)
            if log is not None:
                log.append((name, sim.now.seconds))
        return sim.kernel.create_thread(proc, name)

    def test_killed_queued_waiter_is_dropped_not_granted(self):
        sim, bus = self.make_bus()
        log = []
        self._spawn_transfer(sim, bus, "holder", us(0), log=log)
        victim = self._spawn_transfer(sim, bus, "victim", us(10), log=log)
        self._spawn_transfer(sim, bus, "late", us(20), log=log)
        sim.run(us(500))  # victim and late are both queued behind the holder
        assert bus.queue_length == 2
        victim.kill()
        sim.run(ms(10))
        # Pre-fix behaviour: the grant went to the dead victim, the bus was
        # never released and "late" starved forever.
        assert [name for name, _ in log] == ["holder", "late"]
        assert log[1][1] == pytest.approx(2e-3)
        assert not bus.is_busy
        assert bus.stats.cancelled_count == 1
        assert bus.stats.grant_count == 2

    def test_killed_owner_frees_the_bus_mid_transfer(self):
        sim, bus = self.make_bus()
        log = []
        owner = self._spawn_transfer(sim, bus, "owner", us(0), log=log)
        self._spawn_transfer(sim, bus, "next", us(10), log=log)
        sim.run(us(400))  # owner is mid-transfer (1 ms long)
        owner.kill()
        sim.run(ms(10))
        assert [name for name, _ in log] == ["next"]
        # The aborted portion of the owner's occupation is still busy time.
        assert bus.stats.busy_time.seconds == pytest.approx(400e-6 + 1e-3)
        assert bus.stats.transfer_count == 1  # only "next" completed
        assert bus.stats.words_transferred == 1000
        assert bus.stats.cancelled_count == 1

    def test_timed_out_waiter_is_dropped_at_grant_time(self):
        # A master that stops waiting *without* cancelling (AnyOf timeout)
        # must be skipped when its turn comes.
        sim, bus = self.make_bus()
        outcomes = []

        def holder():
            yield from bus.transfer("holder", 1000)
            outcomes.append("holder")

        def impatient():
            yield us(10)
            handle = bus.request("impatient", 1000)
            timer = sim.kernel.event("timeout")
            timer.notify_after(us(100))
            yield AnyOf([handle.event, timer])
            if handle.granted:  # pragma: no cover - not reached in this test
                yield handle.duration
                bus.complete(handle)
                outcomes.append("impatient")
            else:
                outcomes.append("gave-up")

        def patient():
            yield us(20)
            yield from bus.transfer("patient", 1000)
            outcomes.append("patient")

        sim.kernel.create_thread(holder, "holder")
        sim.kernel.create_thread(impatient, "impatient")
        sim.kernel.create_thread(patient, "patient")
        sim.run(ms(10))
        assert outcomes == ["gave-up", "holder", "patient"]
        assert bus.stats.cancelled_count == 1
        assert not bus.is_busy

    def test_explicit_cancel_dequeues_and_reports(self):
        sim, bus = self.make_bus()
        results = {}

        def holder():
            yield from bus.transfer("holder", 1000)

        def fickle():
            yield us(10)
            handle = bus.request("fickle", 500)
            results["first_cancel"] = bus.cancel(handle)
            results["second_cancel"] = bus.cancel(handle)

        sim.kernel.create_thread(holder, "holder")
        sim.kernel.create_thread(fickle, "fickle")
        sim.run(ms(10))
        assert results == {"first_cancel": True, "second_cancel": False}
        assert bus.queue_length == 0
        assert bus.stats.cancelled_count == 1

    def test_third_party_cancel_wakes_the_parked_master(self):
        # A supervisor withdrawing someone else's queued request must wake
        # the parked master (which then observes request.cancelled).
        sim, bus = self.make_bus()
        log = []
        handles = {}

        def holder():
            yield from bus.transfer("holder", 1000)
            log.append(("holder", sim.now.seconds))

        def victim():
            yield us(10)
            yield from bus.transfer("victim", 1000)
            log.append(("victim", sim.now.seconds))

        def supervisor():
            yield us(100)
            queued = bus._queue[0]
            handles["victim"] = queued
            assert bus.cancel(queued) is True
            log.append(("cancelled", sim.now.seconds))

        sim.kernel.create_thread(holder, "holder")
        victim_process = sim.kernel.create_thread(victim, "victim")
        sim.kernel.create_thread(supervisor, "supervisor")
        sim.run(ms(10))
        # The victim woke at cancel time, saw the cancellation, skipped the
        # transfer and continued immediately instead of sleeping forever.
        assert [entry[0] for entry in log] == ["cancelled", "victim", "holder"]
        assert log[1][1] == pytest.approx(100e-6)  # woken at cancel time
        assert victim_process.terminated
        assert handles["victim"].cancelled and not handles["victim"].granted
        assert bus.stats.transfer_count == 1

    def test_cancel_after_completion_is_rejected(self):
        sim, bus = self.make_bus()
        handles = []

        def master():
            handle = bus.request("m0", 100)
            handles.append(handle)
            if not handle.granted:  # pragma: no cover - granted synchronously
                yield handle.event
            yield handle.duration
            bus.complete(handle)

        sim.kernel.create_thread(master, "m0")
        sim.run(ms(10))
        assert handles[0].completed
        assert bus.cancel(handles[0]) is False
        assert bus.stats.cancelled_count == 0

    def test_cancelled_request_does_not_shadow_live_one(self):
        # A cancelled high-priority entry must not win arbitration.
        sim, bus = self.make_bus(arbitration="priority")
        log = []

        def holder():
            yield from bus.transfer("holder", 1000, priority=0)
            log.append("holder")

        cancelled_handle = {}

        def urgent():
            yield us(10)
            handle = bus.request("urgent", 1000, priority=0)
            cancelled_handle["urgent"] = handle
            bus.cancel(handle)

        def background():
            yield us(20)
            yield from bus.transfer("background", 1000, priority=9)
            log.append("background")

        sim.kernel.create_thread(holder, "holder")
        sim.kernel.create_thread(urgent, "urgent")
        sim.kernel.create_thread(background, "background")
        sim.run(ms(10))
        assert log == ["holder", "background"]
        assert not cancelled_handle["urgent"].granted


class TestCycleAccurateBus:
    """Posedge-arbitrated grants on the bus clock's edge schedule."""

    def make_bus(self, words_per_cycle=4, words_per_second=1e6, **kwargs):
        sim = Simulator()
        bus = Bus(
            sim.kernel,
            "bus",
            words_per_second=words_per_second,
            timing="cycle_accurate",
            words_per_cycle=words_per_cycle,
            **kwargs,
        )
        sim.add_module(bus)
        return sim, bus

    def test_configuration_validation(self):
        kernel = Kernel()
        with pytest.raises(ConfigurationError):
            Bus(kernel, "b1", timing="clairvoyant")
        with pytest.raises(ConfigurationError):
            Bus(kernel, "b2", timing="cycle_accurate", words_per_cycle=0)
        with pytest.raises(ConfigurationError):
            Bus(kernel, "b3", timing="cycle_accurate", words_per_cycle=2.5)

    def test_event_driven_bus_owns_no_clock(self):
        sim = Simulator()
        bus = Bus(sim.kernel, "bus")
        sim.add_module(bus)
        assert bus.clock is None
        assert not bus.is_cycle_accurate

    def test_cycle_accurate_bus_holds_a_clock_of_the_bus_period(self):
        # Batched arbitration computes grant edges from the clock's schedule
        # (Clock.next_posedge_fs); the clock starts at the bus's creation.
        sim, bus = self.make_bus()
        assert bus.is_cycle_accurate
        assert bus.clock is not None
        # words_per_second / words_per_cycle = 250 kHz -> 4 us period
        assert bus.clock.period == us(4)
        assert bus.clock.start_fs == sim.kernel.now_fs == 0

    def test_batched_arbitration_wakes_only_on_interesting_edges(self):
        # An idle cycle-accurate bus must cost zero kernel work per cycle:
        # running 1000 bus periods with no traffic performs no time advances
        # beyond the run horizon itself.
        sim, _ = self.make_bus()
        sim.kernel.initialize()
        before = sim.kernel.stats.time_advances
        sim.kernel.run(ms(4))  # 1000 idle bus cycles at 4 us
        assert sim.kernel.stats.time_advances == before

    def test_durations_quantised_to_whole_cycles(self):
        _, bus = self.make_bus(words_per_cycle=4)
        period = bus.clock.period
        assert bus.cycles_for(1) == 1
        assert bus.cycles_for(4) == 1
        assert bus.cycles_for(5) == 2
        assert bus.transfer_duration(1) == period
        assert bus.transfer_duration(9) == us(12)
        with pytest.raises(ConfigurationError):
            bus.transfer_duration(0)

    def test_grants_land_only_on_posedges(self):
        sim, bus = self.make_bus()
        period_fs = int(bus.clock.period)
        grants = []

        def master(name, delay, words):
            def proc():
                yield delay
                handle = bus.request(name, words)
                assert not handle.granted  # never granted synchronously
                yield handle.event
                grants.append((name, sim.kernel.now_fs))
                yield handle.duration
                bus.complete(handle)
            return proc

        # Requests arrive off-grid; grants must still land on posedges.
        sim.kernel.create_thread(master("m0", us(3), 7), "m0")
        sim.kernel.create_thread(master("m1", us(5), 4), "m1")
        sim.kernel.create_thread(master("m2", us(11), 2), "m2")
        sim.run(ms(10))
        assert len(grants) == 3
        for name, instant in grants:
            assert instant > 0 and instant % period_fs == 0, (name, instant)
        # Back-to-back: the bus frees at a posedge and re-grants at that
        # same instant (m0: 2 cycles from 4 us -> release at 12 us).
        assert grants[0] == ("m0", 1 * period_fs)
        assert grants[1] == ("m1", 3 * period_fs)

    def test_busy_signal_rises_only_on_the_cycle_grid(self):
        sim, bus = self.make_bus()
        period_fs = int(bus.clock.period)
        edges = []
        bus.busy_signal.add_observer(lambda when, value: edges.append((int(when), value)))

        def master(name, delay, words):
            def proc():
                yield delay
                yield from bus.transfer(name, words)
            return proc

        sim.kernel.create_thread(master("m0", us(1), 6), "m0")
        sim.kernel.create_thread(master("m1", us(2), 3), "m1")
        sim.run(ms(10))
        assert edges, "the busy signal never toggled"
        for instant, value in edges:
            if value:  # rising edge == a grant
                assert instant % period_fs == 0

    def test_equivalence_with_event_driven_within_one_bus_period(self):
        # Same contention pattern in both timing modes: every completion of
        # the cycle-accurate run lands within one bus period of its
        # event-driven counterpart (words are multiples of words_per_cycle,
        # so only the grant alignment differs, never the duration).
        pattern = [("m0", 0.0, 8), ("m1", 3.0, 12), ("m2", 7.0, 4)]

        def run(timing):
            sim = Simulator()
            bus = Bus(
                sim.kernel,
                "bus",
                words_per_second=1e6,
                timing=timing,
                words_per_cycle=4,
            )
            sim.add_module(bus)
            completions = {}

            def master(name, delay_us, words):
                def proc():
                    yield us(delay_us)
                    yield from bus.transfer(name, words)
                    completions[name] = sim.kernel.now_fs
                return proc

            for name, delay_us, words in pattern:
                sim.kernel.create_thread(master(name, delay_us, words), name)
            sim.run(ms(10))
            return bus, completions

        event_bus, event_times = run("event_driven")
        cycle_bus, cycle_times = run("cycle_accurate")
        period_fs = int(cycle_bus.clock.period)
        assert set(event_times) == set(cycle_times) == {"m0", "m1", "m2"}
        for name in event_times:
            shift = cycle_times[name] - event_times[name]
            assert 0 <= shift <= period_fs, (name, shift)
        assert event_bus.stats.words_transferred == cycle_bus.stats.words_transferred

    def test_killed_waiter_under_cycle_accurate_arbitration(self):
        sim, bus = self.make_bus()
        log = []

        def master(name, delay, words):
            def proc():
                yield delay
                yield from bus.transfer(name, words)
                log.append(name)
            return proc

        sim.kernel.create_thread(master("holder", us(0), 40), "holder")
        victim = sim.kernel.create_thread(master("victim", us(5), 8), "victim")
        sim.kernel.create_thread(master("late", us(6), 8), "late")
        sim.run(us(20))  # holder owns the bus; victim and late are queued
        victim.kill()
        sim.run(ms(10))
        assert log == ["holder", "late"]
        assert not bus.is_busy
        assert bus.stats.cancelled_count == 1


class TestBusLevel:
    def test_threshold_classification(self):
        thresholds = BusThresholds(medium=0.4, high=0.75)
        assert thresholds.classify(0.0) is BusLevel.LOW
        assert thresholds.classify(0.39) is BusLevel.LOW
        assert thresholds.classify(0.4) is BusLevel.MEDIUM
        assert thresholds.classify(0.74) is BusLevel.MEDIUM
        assert thresholds.classify(0.75) is BusLevel.HIGH
        assert thresholds.classify(1.0) is BusLevel.HIGH

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            BusThresholds(medium=0.8, high=0.5)
        with pytest.raises(ConfigurationError):
            BusThresholds(medium=0.0, high=0.5)

    def test_occupancy_level_tracks_traffic(self):
        sim = Simulator()
        bus = Bus(sim.kernel, "bus", words_per_second=1e6)
        sim.add_module(bus)

        def master():
            yield from bus.transfer("m0", 1000)   # busy 1 ms...
            yield ms(9)                           # ...then idle 9 ms

        sim.kernel.create_thread(master, "m0")
        assert bus.occupancy_level() is BusLevel.LOW
        sim.run(us(800))
        # 0.8 ms elapsed, all of it busy (in-flight credit): occupancy 1.0.
        assert bus.occupancy_level() is BusLevel.HIGH
        sim.run(ms(10))  # 10.8 ms elapsed in total, 1 ms of it busy
        assert bus.occupancy() == pytest.approx(1.0 / 10.8, rel=1e-3)
        # The level decays once the busy interval ages out of the window.
        assert bus.occupancy_level() is BusLevel.LOW

    def test_level_tracks_current_contention_not_lifetime_average(self):
        # A late saturation burst on a long-idle run must register as HIGH
        # even though the lifetime occupancy is diluted toward zero, and
        # fade once the bus has been idle for a window again.
        sim = Simulator()
        bus = Bus(sim.kernel, "bus", words_per_second=1e6)  # window 8.192 ms
        sim.add_module(bus)

        def master():
            yield ms(100)  # a long idle era first
            for _ in range(4):
                yield from bus.transfer("m0", 2000)  # 8 ms saturated burst

        sim.kernel.create_thread(master, "m0")
        sim.run(ms(99))
        assert bus.occupancy_level() is BusLevel.LOW
        sim.run(ms(9))  # 108 ms: deep inside the burst
        assert bus.occupancy() < 0.1  # lifetime average is diluted...
        assert bus.recent_occupancy() > 0.9  # ...the window is not
        assert bus.occupancy_level() is BusLevel.HIGH
        sim.run(ms(30))  # burst over, idle for multiple windows
        assert bus.occupancy_level() is BusLevel.LOW

    def test_custom_window_reads_are_non_destructive(self):
        sim = Simulator()
        bus = Bus(sim.kernel, "bus", words_per_second=1e6)  # window 8.192 ms
        sim.add_module(bus)

        def master():
            yield from bus.transfer("m0", 5000)  # busy 0..5 ms

        sim.kernel.create_thread(master, "m0")
        sim.run(ms(10))
        before = bus.recent_occupancy()
        assert before == pytest.approx((5 - (10 - 8.192)) / 8.192, rel=1e-6)
        # A narrower diagnostic read must not discard history the default
        # window still needs, and out-of-range windows are rejected.
        assert bus.recent_occupancy(ms(1)) == 0.0
        assert bus.recent_occupancy() == pytest.approx(before)
        with pytest.raises(ConfigurationError):
            bus.recent_occupancy(ms(0))
        with pytest.raises(ConfigurationError):
            bus.recent_occupancy(ms(100))  # beyond the retained history

    def test_level_signal_updates_only_while_observed(self):
        sim = Simulator()
        bus = Bus(sim.kernel, "bus", words_per_second=1e6)
        sim.add_module(bus)

        def master():
            yield from bus.transfer("m0", 2000)

        sim.kernel.create_thread(master, "m0")
        sim.run(us(100))
        # Nobody observes the signal: the mirror stays at its initial value
        # even though the windowed occupancy is saturated.
        assert bus.level_signal.read() is BusLevel.LOW
        assert bus.recent_occupancy() == pytest.approx(1.0)
        observed = []
        bus.level_signal.add_observer(lambda when, value: observed.append(value))
        sim.run(ms(10))
        # With an observer attached, the release refreshed the mirror with
        # the level *as of that transaction* (the documented semantics);
        # the on-demand level has decayed since.
        assert observed == [BusLevel.HIGH]
        assert bus.occupancy_level() is BusLevel.LOW


class TestServiceChannel:
    def test_push_pop_counts(self):
        kernel = Kernel()
        channel = ServiceChannel(kernel, "svc")
        channel.push_task(Task("t0", 100))
        channel.push_task(Task("t1", 100))
        assert channel.pending == 2
        request = channel.try_pop()
        assert request.task.name == "t0"
        assert channel.pending == 1
        assert channel.pushed_count == 2
        assert channel.popped_count == 1

    def test_try_pop_empty_returns_none(self):
        channel = ServiceChannel(Kernel(), "svc")
        assert channel.try_pop() is None

    def test_closed_channel_rejects_push(self):
        channel = ServiceChannel(Kernel(), "svc")
        channel.close()
        assert channel.is_closed
        with pytest.raises(WorkloadError):
            channel.push(ServiceRequest(task=Task("t0", 1)))

    def test_consumer_waits_for_producer(self):
        sim = Simulator()
        channel = ServiceChannel(sim.kernel, "svc")
        consumed = []

        def consumer():
            while True:
                request = yield from channel.wait_and_pop()
                if request is None:
                    return
                consumed.append((request.task.name, sim.now.seconds))

        def producer():
            yield ms(1)
            channel.push_task(Task("a", 10))
            yield ms(1)
            channel.push_task(Task("b", 10))
            channel.close()

        sim.kernel.create_thread(consumer, "consumer")
        sim.kernel.create_thread(producer, "producer")
        sim.run(ms(10))
        assert [name for name, _ in consumed] == ["a", "b"]
        assert consumed[0][1] == pytest.approx(1e-3)

    def test_generator_module_pushes_workload(self):
        sim = Simulator()
        channel = ServiceChannel(sim.kernel, "svc")
        workload = periodic_workload(task_count=5, cycles=1000, idle=ms(1))
        generator = ServiceRequestGenerator(sim.kernel, "generator", workload, channel)
        sim.add_module(generator)
        sim.run(ms(20))
        assert generator.issued == 5
        assert channel.pushed_count == 5
        assert channel.is_closed
