"""How fast the host runs right now, from a fixed workload of the benchmark's own.

On a shared machine the same code runs tens of percent slower or faster
from one minute to the next, as neighbouring load comes and goes.  The
workloads therefore time this small discrete-event loop around their ops
and scale the ops' timings to a reference host on which the loop takes
:data:`REFERENCE_S`.  The loop shares no code with the program, so a change
to the program moves the scaled figures, while a slower or faster host
moves the loop and the program alike and cancels out.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: the loop's median time on the 2-core host the bounds were tuned on
REFERENCE_S = 0.0118
#: How strongly the program's times follow the loop's, as an exponent: when
#: the loop runs 2x slower the simulator runs about 2**0.75 = 1.7x slower.
#: Fitted on two sets of ten runs per workload on that host, where scaling
#: by the loop's full slowness over-corrected (spreads of 6-11%) and no
#: scaling spread by up to 31%; 0.75 gave 3-7%.
ELASTICITY = 0.75

_PROCESSES = 64
_EVENTS = 12_000


class _Process:
    __slots__ = ("state", "energy", "count")

    def __init__(self) -> None:
        self.state = 0
        self.energy = 0.0
        self.count = 0


def _behaviour(process: _Process, rng: random.Random):
    while True:
        process.state = (process.state + 1) % 4
        process.energy += 0.5e-3 * process.state
        process.count += 1
        yield rng.random() * 10.0


def sample_s() -> float:
    """Host seconds of one run of the fixed event loop.

    The collector is off meanwhile, so the size of the program's heap
    cannot change the loop's time; the loop itself makes no cycles.
    """
    gc.disable()
    try:
        return _timed_loop()
    finally:
        gc.enable()


def _timed_loop() -> float:
    start = time.perf_counter()
    rng = random.Random(1)
    processes = [_Process() for _ in range(_PROCESSES)]
    behaviours = [_behaviour(process, rng) for process in processes]
    queue = [(0.0, index) for index in range(_PROCESSES)]
    heapq.heapify(queue)
    last_seen = {}
    for _ in range(_EVENTS):
        now, index = heapq.heappop(queue)
        delay = next(behaviours[index])
        last_seen[index, processes[index].state] = now
        heapq.heappush(queue, (now + delay, index))
    return time.perf_counter() - start


def slowness(samples: int = 1) -> float:
    """How many times slower than on the reference host the program runs now."""
    loop_s = statistics.median(sample_s() for _ in range(samples))
    return (loop_s / REFERENCE_S) ** ELASTICITY
