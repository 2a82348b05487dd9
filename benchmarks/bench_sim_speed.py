"""Reproduction of the simulation-speed figure.

The paper reports "The simulation speed was 35 Kcycle/sec (sim. A) and
7.5 Kcycle/sec (B and C)" for its SystemC 2.0 models.  These benchmarks
measure the same quantity for this implementation: simulated reference-clock
cycles (at the ON1 frequency) per wall-clock second, for a single-IP scenario
and for the four-IP GEM scenario, plus a kernel-only microbenchmark that
isolates the discrete-event engine.
"""

from __future__ import annotations

import functools

import pytest

from repro.dpm import DpmSetup
from repro.experiments import run_scenario, scenario_by_name
from repro.platform import PlatformBuilder
from repro.sim import Kernel, ns, us
from repro.soc import build_soc


@functools.lru_cache(maxsize=None)
def _warm_up() -> None:
    """One throwaway A1 run per process, shared by every benchmark.

    The first run pays the process's one-time costs: lazy imports, the
    default power model and Table 1 rows (built once per process and then
    shared by every SoC), and the first-call overheads of the interpreter.
    Routing every benchmark through this single warm-up keeps those costs
    out of every timed region.
    """
    run_scenario(scenario_by_name("A1"), DpmSetup.paper())


def _bench_scenario(benchmark, name: str, paper_kcps: float):
    """One measured scenario run; results land in ``extra_info`` for the
    longitudinal dashboard (``benchmarks/bench_dashboard.py``)."""
    _warm_up()

    def run():
        return run_scenario(scenario_by_name(name), DpmSetup.paper())

    artefacts = benchmark.pedantic(run, rounds=1, iterations=1)
    speed = artefacts.kilocycles_per_second()
    benchmark.extra_info["kilocycles_per_second"] = round(speed, 1)
    benchmark.extra_info["paper_kilocycles_per_second"] = paper_kcps
    benchmark.extra_info["scenario"] = name
    print(
        f"\n[sim-speed {name}] {speed:.0f} Kcycle/s "
        f"(paper: {paper_kcps:g} Kcycle/s on 2005 hardware)"
    )
    assert speed > paper_kcps  # abstract Python model outruns the 2005 RTL setup


@pytest.mark.benchmark(group="sim-speed")
def test_simulation_speed_single_ip(benchmark):
    """Throughput of a full A-style scenario (paper: 35 Kcycle/s)."""
    _bench_scenario(benchmark, "A1", 35.0)


@pytest.mark.benchmark(group="sim-speed")
def test_simulation_speed_multi_ip(benchmark):
    """Throughput of the four-IP GEM scenario (paper: 7.5 Kcycle/s)."""
    _bench_scenario(benchmark, "B", 7.5)


@pytest.mark.benchmark(group="sim-speed")
def test_simulation_speed_single_ip_traced(benchmark, tmp_path):
    """A1 with jsonl event tracing enabled.

    Tracked against ``test_simulation_speed_single_ip`` in the dashboard:
    the gap between the two is the live cost of the instrumentation hooks
    (which must stay small — the disabled-hook cost is bounded separately
    by the goldens staying bit-identical).
    """
    from repro.obs import TraceRequest

    request = TraceRequest(format="jsonl", path=str(tmp_path / "a1.jsonl"))

    def run():
        return run_scenario(scenario_by_name("A1"), DpmSetup.paper(), trace=request)

    artefacts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert artefacts.trace_path is not None
    speed = artefacts.kilocycles_per_second()
    benchmark.extra_info["kilocycles_per_second"] = round(speed, 1)
    benchmark.extra_info["paper_kilocycles_per_second"] = 35.0
    benchmark.extra_info["scenario"] = "A1-traced"
    print(f"\n[sim-speed A1/traced] {speed:.0f} Kcycle/s")
    assert speed > 35.0


@pytest.mark.benchmark(group="soc-build")
def test_soc_build_multi_ip(benchmark):
    """Build cost of the four-IP GEM scenario B, apart from its simulation.

    Only ``build_soc`` is timed; each round gets fresh IP specs and SoC
    configuration.  The power models are warm (cached per process), so this
    is what every build after the first pays.  The dashboard tracks the
    rate as ``SOC-BUILD-B`` in builds per second.
    """
    _warm_up()
    scenario = scenario_by_name("B")

    def fresh_inputs():
        return (scenario.build_specs(), scenario.build_config(), DpmSetup.paper()), {}

    soc = benchmark.pedantic(build_soc, setup=fresh_inputs, rounds=50, warmup_rounds=2)
    assert len(soc.instances) == 4 and soc.gem is not None
    builds_per_second = 1.0 / benchmark.stats.stats.median
    benchmark.extra_info["builds_per_second"] = round(builds_per_second, 1)
    benchmark.extra_info["scenario"] = "SOC-BUILD-B"
    print(f"\n[soc-build B] {1e3 / builds_per_second:.2f} ms per build "
          f"({builds_per_second:.0f} builds/s)")


def _bus_contention_platform(timing: str):
    """Four IPs hammering one shared bus: the bus-arbitration stress case.

    The same platform runs in both timing modes, so the dashboard tracks the
    cost of batched posedge arbitration (grants computed from the bus
    clock's edge schedule) against the clock-free event-driven bus.
    """
    builder = (
        PlatformBuilder(f"bench-bus-{timing}")
        .describe("bus-contention benchmark platform")
        .bus(words_per_second=10e6, arbitration="priority", timing=timing,
             words_per_cycle=4)
        .max_time_ms(2000)
    )
    for index in range(4):
        builder.ip(
            f"ip{index}",
            workload={"kind": "periodic", "task_count": 40, "cycles": 50_000,
                      "idle_us": 200.0},
            priority=index + 1,
            bus_words_per_task=512,
        )
    return builder.build()


def _bench_bus(benchmark, timing: str):
    def run():
        return run_scenario(_bus_contention_platform(timing), DpmSetup.paper())

    artefacts = benchmark.pedantic(run, rounds=1, iterations=1)
    bus = artefacts.soc.bus
    assert bus is not None and bus.stats.transfer_count == 4 * 40
    speed = artefacts.kilocycles_per_second()
    benchmark.extra_info["kilocycles_per_second"] = round(speed, 1)
    benchmark.extra_info["scenario"] = f"BUS-{'CA' if timing == 'cycle_accurate' else 'ED'}"
    benchmark.extra_info["bus_timing"] = timing
    benchmark.extra_info["bus_occupancy_pct"] = round(100.0 * bus.occupancy(), 1)
    print(
        f"\n[sim-speed bus/{timing}] {speed:.0f} Kcycle/s "
        f"(occupancy {100.0 * bus.occupancy():.0f}%, "
        f"{bus.stats.transfer_count} transfers)"
    )
    assert speed > 0.0


@pytest.mark.benchmark(group="sim-speed")
def test_simulation_speed_bus_event_driven(benchmark):
    """Bus contention with the clock-free event-driven arbiter."""
    _bench_bus(benchmark, "event_driven")


@pytest.mark.benchmark(group="sim-speed")
def test_simulation_speed_bus_cycle_accurate(benchmark):
    """Bus contention with batched posedge arbitration."""
    _bench_bus(benchmark, "cycle_accurate")


@pytest.mark.benchmark(group="sim-speed")
def test_kernel_event_throughput(benchmark):
    """Raw kernel throughput: timed waits per second (engine microbenchmark)."""

    def run_many_timeouts():
        kernel = Kernel()
        counter = {"events": 0}

        def ticker():
            while True:
                yield ns(100)
                counter["events"] += 1

        for index in range(4):
            kernel.create_thread(ticker, f"ticker{index}")
        kernel.run(us(500))
        return counter["events"]

    events = benchmark(run_many_timeouts)
    assert events == 4 * 5000
    benchmark.extra_info["timed_events"] = events
