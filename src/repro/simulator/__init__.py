"""Deterministic discrete-event simulation kernel (time in microseconds).

Public surface::

    sim = Simulator()
    def proc(sim):
        yield sim.timeout(5.0)
        return "done"
    p = sim.spawn(proc(sim))
    sim.run(until=p)   # -> "done"
"""

from .core import LAZY, NORMAL, URGENT, Event, Process, Simulator, Timeout
from .errors import (
    AlreadyTriggered,
    NonFiniteTime,
    SchedulingInPast,
    SimulationError,
)
from .fluid import BulkFlow, FluidChannel
from .resources import Resource, Store, TokenBucket, WaitQueue
from .stats import Counter, StatsRegistry, Tally, TimeSeries
from .sync import all_of, any_of

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "URGENT",
    "NORMAL",
    "LAZY",
    "Resource",
    "Store",
    "WaitQueue",
    "TokenBucket",
    "all_of",
    "any_of",
    "FluidChannel",
    "BulkFlow",
    "Counter",
    "Tally",
    "TimeSeries",
    "StatsRegistry",
    "SimulationError",
    "SchedulingInPast",
    "NonFiniteTime",
    "AlreadyTriggered",
]
