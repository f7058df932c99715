"""Reference loop: fixed CPU work timed beside every host measurement.

The host's speed drifts by several percent over minutes, so raw wall
times are scaled by ``NOMINAL_S / measured``, where ``measured`` is this
loop's time in the same process, sampled in short slices interleaved
with the measurement.  The loop exercises what the simulator's hot path
does (generator sends, heap churn, small-object allocation, dict
updates, float arithmetic) and uses the standard library only, so
nothing under test can change it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Median time of a full pass on the reference host (a shared 2 vCPU
#: Xeon VM, CPython 3.11); normalised times are in that host's seconds.
NOMINAL_S = 0.21

_ROUNDS = 120_000
_SLICES_PER_PASS = 5
#: Rounds in half a pass.
HALF_PASS = _ROUNDS // 2


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: float, value: int) -> None:
        self.key = key
        self.value = value


def _accumulator():
    total = 0.0
    while True:
        total += yield total


def _work(rounds: int) -> float:
    heap: list[tuple[float, int, _Item]] = []
    table: dict[int, _Item] = {}
    acc = _accumulator()
    next(acc)
    clock = 0.0
    for i in range(rounds):
        clock += 1.5 + (i % 7) * 0.25
        item = _Item(clock * 1.0001, i)
        heapq.heappush(heap, (item.key + (i % 13), i, item))
        table[i & 1023] = item
        if len(heap) > 256:
            _key, _seq, old = heapq.heappop(heap)
            table.pop(old.value & 1023, None)
            acc.send(old.key * 0.5)
    return acc.send(0.0) + len(table)


def time_ref(rounds: int) -> float:
    """Seconds ``rounds`` rounds of the reference loop take here.

    The cyclic garbage collector is off while it runs: the loop's own
    allocations would otherwise trigger full collections of whatever
    heap the process holds (a simulation's is large), and the loop
    would time those instead of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(rounds)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def time_slice() -> float:
    """Seconds for one short slice (a fifth of a full pass)."""
    return time_ref(_ROUNDS // _SLICES_PER_PASS)


def slices_to_ref(slices: list[float]) -> float:
    """Reference time of a full pass, estimated from many slices: their
    mean, so every stretch of host time they sampled counts alike."""
    return sum(slices) / len(slices) * _SLICES_PER_PASS


def normalise(raw_s: float, ref_s: float) -> float:
    """``raw_s`` in reference-host seconds."""
    return raw_s * NOMINAL_S / ref_s
