"""Host-time attribution by layer, from outside the program.

A layer is a package under ``src/repro/``.  Two instruments, both driven
from the benchmark's own files so nothing under ``src/`` changes:

* :class:`LayerSampler` charges host time to layers by interval-timer
  sampling (ITIMER_REAL: high-resolution, unlike ITIMER_PROF, which
  ticks only every few milliseconds).  Each SIGALRM charges the wall
  time since the previous one to the innermost frame that lies in a
  layer, so time spent in C and numpy goes to the layer that called it.
  Time with no layer frame on the stack is ``other``.
* :func:`layer_calls` folds a cProfile run into Python calls per layer
  (generator resumptions count as calls, as cProfile counts them).
"""

from __future__ import annotations

import cProfile
import os
import signal
import time
from collections import Counter

LAYERS = (
    "simulator",
    "kernel",
    "hpbd",
    "ib",
    "net",
    "nbd",
    "tcpip",
    "disk",
    "cluster",
    "redundancy",
    "faults",
    "obs",
    "workloads",
)
OTHER = "other"


class LayerMap:
    """Source file -> layer name (or None), cached per file."""

    def __init__(self, repro_dir: str) -> None:
        self._prefix = os.path.realpath(repro_dir) + os.sep
        self._cache: dict[str, str | None] = {}

    def layer(self, filename: str) -> str | None:
        try:
            return self._cache[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename)
        layer = None
        if path.startswith(self._prefix):
            head = path[len(self._prefix):].split(os.sep, 1)[0]
            if head in LAYERS:
                layer = head
        self._cache[filename] = layer
        return layer


class LayerSampler:
    """Context manager: per-layer host seconds of the enclosed code.

    ``seconds`` maps each layer (and ``other``) to the time charged to
    it, ``total_s`` is the block's wall time and ``tail_s`` the stretch
    after the last tick, which no sample covers.  The handler runs in
    the main thread, so the frame it gets is the one the interpreter
    was executing.
    """

    def __init__(self, layers: LayerMap, interval_s: float = 0.001) -> None:
        self._layers = layers
        self._interval = interval_s
        self.seconds: Counter = Counter()
        self.samples = 0
        self.total_s = 0.0
        self.tail_s = 0.0

    def _charge(self, signum, frame) -> None:
        now = time.perf_counter()
        layer = None
        code_layer = self._layers.layer
        while frame is not None:
            layer = code_layer(frame.f_code.co_filename)
            if layer is not None:
                break
            frame = frame.f_back
        self.seconds[layer or OTHER] += now - self._last
        self.samples += 1
        self._last = now

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGALRM, self._charge)
        self._start = self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        end = time.perf_counter()
        self.tail_s = end - self._last
        self.total_s = end - self._start

    @property
    def attributed_s(self) -> float:
        """Host time the samples charged (everything but the tail)."""
        return sum(self.seconds.values())

    def fractions(self) -> dict[str, float]:
        """Share of the block's host time per layer; ``other`` also
        takes the uncovered tail."""
        total = self.total_s or 1.0
        out = {layer: self.seconds.get(layer, 0.0) / total for layer in LAYERS}
        out[OTHER] = (self.seconds.get(OTHER, 0.0) + self.tail_s) / total
        return out


def layer_calls(profile: cProfile.Profile, layers: LayerMap) -> dict[str, int]:
    """Python calls into each layer recorded by ``profile``."""
    calls = dict.fromkeys(LAYERS, 0)
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a builtin: "<built-in method ...>"
            continue
        layer = layers.layer(code.co_filename)
        if layer is not None:
            calls[layer] += entry.callcount
    return calls
